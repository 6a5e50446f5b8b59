// Fig. 8 reproduction: "% time spent in MPI calls across all MPI processes".
//
// mpiP's headline plot: for each rank, the fraction of total execution time
// spent inside communication routines. This bench runs the profiled proxy
// mini-app and prints the same per-rank breakdown plus summary statistics.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  bench::ProfiledRun run = bench::parse_run(argc, argv);
  const std::vector<prof::CallProfile> profiles = bench::execute(run);

  std::printf(
      "=== Fig. 8: %% of execution time in comm routines, per rank ===\n"
      "%d ranks, N=%d, %dx%dx%d elements, %d steps\n\n",
      run.ranks, run.config.n, run.config.ex, run.config.ey, run.config.ez,
      run.steps);
  auto table = prof::comm_fraction_table(profiles);
  std::printf("%s\n", table.str().c_str());
  bench::write_csv(run.csv_dir, "fig8_mpi_fraction", table);

  auto frac = prof::comm_fraction_per_rank(profiles);
  double mean = std::accumulate(frac.begin(), frac.end(), 0.0) / frac.size();
  double lo = *std::min_element(frac.begin(), frac.end());
  double hi = *std::max_element(frac.begin(), frac.end());
  std::printf("summary: mean %.1f%%, min %.1f%%, max %.1f%% "
              "(spread indicates load imbalance, as the paper notes)\n",
              100 * mean, 100 * lo, 100 * hi);
  return 0;
}

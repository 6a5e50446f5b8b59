// Fig. 9 reproduction: "Time spent in the 20 most expensive MPI calls".
//
// The paper's observation: MPI_Wait dominates, exposing synchronization /
// load-balance cost that analytic network models struggle to capture. This
// bench prints the top-20 comm call sites by aggregate time across ranks,
// labeled region/operation the way mpiP attributes call sites.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  bench::ProfiledRun run = bench::parse_run(argc, argv);
  const std::vector<prof::CallProfile> profiles = bench::execute(run);

  std::printf(
      "=== Fig. 9: time in the top 20 comm call sites ===\n"
      "%d ranks, N=%d, %dx%dx%d elements, %d steps\n\n",
      run.ranks, run.config.n, run.config.ex, run.config.ey, run.config.ez,
      run.steps);
  auto table = prof::top_sites_table(profiles, 20);
  std::printf("%s\n", table.str().c_str());
  bench::write_csv(run.csv_dir, "fig9_top_mpi_calls", table);

  // How much of comm time is synchronization (waits) vs data movement?
  double wait = 0, total = 0;
  for (const auto& s : prof::site_totals(profiles)) {
    total += s.seconds;
    if (s.site.find("MPI_Wait") != std::string::npos ||
        s.site.find("MPI_Barrier") != std::string::npos) {
      wait += s.seconds;
    }
  }
  if (total > 0) {
    std::printf("synchronization share of comm time: %.1f%% "
                "(paper: MPI_Wait dominates -> load imbalance)\n",
                100 * wait / total);
  }
  return 0;
}

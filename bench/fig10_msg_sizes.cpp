// Fig. 10 reproduction: "Total and average size of messages sent in the
// most frequently called MPI calls".
//
// The data-transfer characterization the paper feeds into its network
// models: per call site, how many bytes move in total and per message.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  bench::ProfiledRun run = bench::parse_run(argc, argv);
  const std::vector<prof::CallProfile> profiles = bench::execute(run);

  std::printf(
      "=== Fig. 10: message sizes of the most frequent comm calls ===\n"
      "%d ranks, N=%d, %dx%dx%d elements, %d steps\n\n",
      run.ranks, run.config.n, run.config.ex, run.config.ey, run.config.ez,
      run.steps);
  auto table = prof::message_sizes_table(profiles, 20);
  std::printf("%s\n", table.str().c_str());
  bench::write_csv(run.csv_dir, "fig10_msg_sizes", table);

  // The structural expectation: the nearest-neighbor face exchange moves
  // n^2-points-per-face messages; report the dominant data mover.
  long long total_bytes = 0;
  for (const auto& s : prof::site_totals(profiles)) {
    total_bytes += s.total_bytes;
  }
  std::printf("total payload moved: %lld bytes across all sites\n",
              total_bytes);
  return 0;
}

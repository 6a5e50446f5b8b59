// Fig. 4 reproduction: "Partial CMT-bone call graph and execution profile".
//
// The paper profiled CMT-bone with gprof on 8 MPI processes and found the
// derivative kernel (ax_) dominating, followed by full2face_cmt and gs_op_.
// This bench runs the mini-app under the call-tree profiler, merges all
// ranks, and prints both the call tree and a flat table of the key kernels
// with their share of total time.

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  // Enough steps that one-time setup (gs_setup discovery) amortizes, as in
  // the paper's long profiled runs, and a slightly higher default order so
  // the O(N^4) derivative work dominates the O(N^2) surface traffic the
  // way it does on a real node (the in-process fabric overprices waits).
  bench::ProfiledRun run =
      bench::parse_run(argc, argv, /*default_steps=*/10, /*default_n=*/12);
  run.config.use_dssum = true;  // include the gs_op_ kernel, as in Fig. 4

  prof::CallProfile merged;
  for (const auto& p : bench::execute(run)) merged.merge(p);

  std::printf(
      "=== Fig. 4: CMT-bone call graph and execution profile ===\n"
      "%d ranks, N=%d, %dx%dx%d elements, %d steps\n\n",
      run.ranks, run.config.n, run.config.ex, run.config.ey, run.config.ez,
      run.steps);
  std::printf("Call tree (all ranks merged, inclusive time):\n%s\n",
              merged.tree_report().c_str());

  auto flat = merged.flat();
  double total = merged.total_seconds();
  if (total <= 0) total = 1;
  util::Table table({"kernel", "calls", "exclusive (s)", "% of total"});
  table.set_title("Flat profile of the key kernels (paper: ax_ dominates,\n"
                  "then full2face_cmt and gs_op_)");
  for (const auto& e : flat) {
    table.add_row({e.name, std::to_string(e.calls),
                   util::Table::num(e.exclusive, 4),
                   util::Table::pct(e.exclusive / total)});
  }
  std::printf("%s\n", table.str().c_str());

  // The headline claim of Fig. 4: derivative computation is the most
  // expensive kernel.
  if (!flat.empty()) {
    std::printf("hottest kernel: %s (%.1f%% of profiled time)\n",
                flat.front().name.c_str(),
                100.0 * flat.front().exclusive / total);
  }
  return 0;
}

// §VI sweep: which gather-scatter algorithm wins as the job scales?
//
// The paper notes the method choice is problem- and machine-dependent:
// CMT-bone picked pairwise exchange on Compton, Nekbone picked the crystal
// router, all_reduce lost for both, and the choice may flip "as new kernels
// get added ... and the problem setup changes". This bench re-runs the
// startup tuning across rank counts and prints the winner at each scale.
//
// Usage: gs_autotune_sweep [--max-ranks 32] [--n 5]

#include <cstdio>

#include "comm/runtime.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("max-ranks", "largest rank count (default 32)")
      .describe("n", "GLL points per direction (default 5)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int max_ranks = cli.get_int("max-ranks", 32);
  const int n = cli.get_int("n", 5);

  std::printf("=== gs method auto-selection across scales (§VI) ===\n\n");
  util::Table table({"ranks", "proc grid", "pairwise avg (s)",
                     "crystal avg (s)", "all_reduce avg (s)", "winner"});

  for (int p = 2; p <= max_ranks; p *= 2) {
    auto grid = mesh::BoxSpec::default_proc_grid(p);
    mesh::BoxSpec spec;
    spec.n = n;
    spec.px = grid[0];
    spec.py = grid[1];
    spec.pz = grid[2];
    spec.ex = 2 * grid[0];
    spec.ey = 2 * grid[1];
    spec.ez = 2 * grid[2];

    std::vector<gs::GatherScatter::TuneRow> rows;
    gs::Method winner = gs::Method::kPairwise;
    comm::run(p, [&](comm::Comm& world) {
      auto ids = mesh::global_gll_ids(
          mesh::ElementLayout::block(spec, world.rank()));
      gs::GatherScatter handle(world, ids, gs::Method::kAuto);
      if (world.rank() == 0) {
        rows = handle.tuning();
        winner = handle.method();
      }
    });

    char grid_str[32];
    std::snprintf(grid_str, sizeof grid_str, "%dx%dx%d", grid[0], grid[1],
                  grid[2]);
    table.add_row({std::to_string(p), grid_str,
                   util::Table::sci(rows[0].avg, 3),
                   util::Table::sci(rows[1].avg, 3),
                   util::Table::sci(rows[2].avg, 3),
                   gs::method_name(winner)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("(expected shape: all_reduce trails at every scale;\n"
              " pairwise and crystal router trade places with topology)\n");
  return 0;
}

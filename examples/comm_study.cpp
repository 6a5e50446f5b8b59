// Gather-scatter algorithm study: measured startup tuning vs the LogGP
// analytic model.
//
// Builds the Fig. 7 problem shape at a configurable scale, runs the gs
// startup tuning pass (pairwise vs crystal router vs all_reduce), and then
// asks the LogGP model what each algorithm *should* cost on three machine
// presets — the co-design loop of the paper's §VI in one binary.
//
// Usage: comm_study [--ranks 16] [--n 6] [--elems-per-rank 8]

#include <cstdio>

#include "comm/runtime.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "netmodel/loggp.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 16)")
      .describe("n", "GLL points per direction (default 6)")
      .describe("elems-per-rank", "elements per rank, approx (default 8)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int ranks = cli.get_int("ranks", 16);
  const int n = cli.get_int("n", 6);
  const int epr = cli.get_int("elems-per-rank", 8);

  // Build a box with ~epr elements per rank on an auto processor grid.
  auto grid = mesh::BoxSpec::default_proc_grid(ranks);
  mesh::BoxSpec spec;
  spec.n = n;
  spec.px = grid[0];
  spec.py = grid[1];
  spec.pz = grid[2];
  int side = 1;
  while (side * side * side < epr) ++side;
  spec.ex = spec.px * side;
  spec.ey = spec.py * side;
  spec.ez = spec.pz * side;

  std::printf("gs study: %d ranks (%dx%dx%d), N=%d, %d elements/rank\n\n",
              ranks, spec.px, spec.py, spec.pz, n, side * side * side);

  std::vector<gs::GatherScatter::TuneRow> tuning;
  gs::Method chosen = gs::Method::kPairwise;
  netmodel::ExchangeShape shape;
  comm::run(ranks, [&](comm::Comm& world) {
    auto ids = mesh::global_gll_ids(
        mesh::ElementLayout::block(spec, world.rank()));
    gs::GatherScatter gs_handle(world, ids, gs::Method::kAuto);
    if (world.rank() == 0) {
      tuning = gs_handle.tuning();
      chosen = gs_handle.method();
      shape.ranks = world.size();
      shape.neighbors = int(gs_handle.pairwise_neighbors().size());
      shape.pairwise_bytes =
          (long long)(gs_handle.pairwise_send_values()) * 8;
      shape.crystal_records = (long long)(gs_handle.topology().shared.size());
      shape.big_vector_bytes = gs_handle.big_vector_size() * 8;
    }
  });

  util::Table measured({"method", "time avg (s)", "time min (s)", "time max (s)"});
  measured.set_title("Measured startup tuning (in-process runtime)");
  for (const auto& row : tuning) {
    measured.add_row({gs::method_name(row.method), util::Table::sci(row.avg, 3),
                      util::Table::sci(row.min, 3), util::Table::sci(row.max, 3)});
  }
  std::printf("%s\nchosen method: %s\n\n", measured.str().c_str(),
              gs::method_name(chosen));

  util::Table predicted(
      {"machine", "pairwise (s)", "crystal (s)", "all_reduce (s)", "model pick"});
  predicted.set_title("LogGP-predicted per-gs_op cost (rank-0 shape)");
  for (const auto& machine :
       {netmodel::qdr_infiniband(), netmodel::ethernet_10g(),
        netmodel::notional_exascale()}) {
    auto p = netmodel::predict_all(machine, shape);
    predicted.add_row({machine.name, util::Table::sci(p.pairwise, 3),
                       util::Table::sci(p.crystal, 3),
                       util::Table::sci(p.allreduce, 3), p.best()});
  }
  std::printf("%s\n", predicted.str().c_str());
  std::printf(
      "Shape: %d pairwise neighbors, %lld bytes/exec pairwise, %lld shared\n"
      "ids, big vector %lld bytes.\n",
      shape.neighbors, shape.pairwise_bytes, shape.crystal_records,
      shape.big_vector_bytes);
  return 0;
}

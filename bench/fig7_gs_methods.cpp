// Fig. 7 reproduction: "Comparison of the two communication algorithm
// candidates (pairwise exchange and crystal router) used in CMT-bone and
// Nekbone".
//
// The paper's setup: 256 processes (8,8,4), 100 elements per process
// (5,5,4 local, 40,40,16 global), N=10 gridpoints, one timestep; avg/min/max
// time of each gather-scatter method across ranks, for both mini-apps.
// The default here shrinks the scale so the bench finishes quickly on one
// oversubscribed core; --paper-scale runs the exact Fig. 7 geometry.
//
// Usage: fig7_gs_methods [--ranks 32] [--n 6] [--paper-scale]

#include <cstdio>

#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "nekbone/nekbone.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace cmtbone;

struct Setup {
  int ranks;
  mesh::BoxSpec spec;
};

// Gather-scatter tuning rows for CMT-bone's dssum id pattern.
std::vector<gs::GatherScatter::TuneRow> tune_for(const Setup& setup) {
  std::vector<gs::GatherScatter::TuneRow> rows;
  comm::run(setup.ranks, [&](comm::Comm& world) {
    auto ids = mesh::global_gll_ids(
        mesh::ElementLayout::block(setup.spec, world.rank()));
    gs::GatherScatter handle(world, ids, gs::Method::kAuto);
    if (world.rank() == 0) rows = handle.tuning();
  });
  return rows;
}

// The tuning rows of Nekbone's own gs handle: the mini-app built on the
// same N, element grid and processor grid, non-periodic (Nekbone solves a
// boundary problem), picking its method at start-up.
std::vector<gs::GatherScatter::TuneRow> nekbone_tuning(const Setup& setup) {
  std::vector<gs::GatherScatter::TuneRow> rows;
  comm::run(setup.ranks, [&](comm::Comm& world) {
    nekbone::NekboneConfig cfg;
    cfg.n = setup.spec.n;
    cfg.ex = setup.spec.ex;
    cfg.ey = setup.spec.ey;
    cfg.ez = setup.spec.ez;
    cfg.px = setup.spec.px;
    cfg.py = setup.spec.py;
    cfg.pz = setup.spec.pz;
    cfg.periodic = false;
    cfg.gs_method = gs::Method::kAuto;
    cfg.threads_per_rank = 1;
    nekbone::Nekbone nb(world, cfg);
    if (world.rank() == 0) rows = nb.gather_scatter().tuning();
  });
  return rows;
}

void print_rows(util::Table& table, const char* app,
                const std::vector<gs::GatherScatter::TuneRow>& rows) {
  for (const auto& row : rows) {
    table.add_row({app, gs::method_name(row.method),
                   util::Table::sci(row.avg, 4), util::Table::sci(row.min, 4),
                   util::Table::sci(row.max, 4)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 32)")
      .describe("n", "GLL points per element direction (default 6)")
      .describe("paper-scale", "exact Fig. 7 geometry: 256 ranks, N=10")
      .describe("csv-dir", "also write the result table as CSV here");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  Setup cmt;
  if (cli.has("paper-scale")) {
    cmt.ranks = 256;
    cmt.spec.n = 10;
    cmt.spec.ex = 40;
    cmt.spec.ey = 40;
    cmt.spec.ez = 16;
    cmt.spec.px = 8;
    cmt.spec.py = 8;
    cmt.spec.pz = 4;
  } else {
    cmt.ranks = cli.get_int("ranks", 32);
    auto grid = mesh::BoxSpec::default_proc_grid(cmt.ranks);
    cmt.spec.n = cli.get_int("n", 6);
    cmt.spec.px = grid[0];
    cmt.spec.py = grid[1];
    cmt.spec.pz = grid[2];
    // ~2 elements per rank per direction, echoing the 100-elements/rank
    // shape of the paper at reduced scale.
    cmt.spec.ex = 2 * grid[0];
    cmt.spec.ey = 2 * grid[1];
    cmt.spec.ez = 2 * grid[2];
  }
  cmt.spec.periodic = true;

  const int epr = int(cmt.spec.total_elements()) / cmt.ranks;
  std::printf(
      "=== Fig. 7: gather-scatter method comparison, CMT-bone vs Nekbone ===\n"
      "Setup: %d processors (%d,%d,%d), %d elements/process, N=%d,\n"
      "       element grid (%d,%d,%d), %lld total elements\n\n",
      cmt.ranks, cmt.spec.px, cmt.spec.py, cmt.spec.pz, epr, cmt.spec.n,
      cmt.spec.ex, cmt.spec.ey, cmt.spec.ez, cmt.spec.total_elements());

  // CMT-bone's gs pattern: the DG mesh numbering (its gs_op is used for
  // dssum over all GLL points). Nekbone's rows come from a nekbone::Nekbone
  // on the same grids; its non-periodic box changes the shared-id
  // structure the methods see.
  auto cmt_rows = tune_for(cmt);
  auto nek_rows = nekbone_tuning(cmt);

  util::Table table(
      {"Mini-app", "All-to-all method", "Time (avg) s", "Time (min) s",
       "Time (max) s"});
  print_rows(table, "CMT-bone", cmt_rows);
  print_rows(table, "Nekbone", nek_rows);
  std::printf("%s\n", table.str().c_str());
  bench::write_csv(cli.get("csv-dir", ""), "fig7_gs_methods", table);

  auto best = [](const std::vector<gs::GatherScatter::TuneRow>& rows) {
    const gs::GatherScatter::TuneRow* b = &rows[0];
    for (const auto& r : rows) {
      if (r.avg < b->avg) b = &r;
    }
    return gs::method_name(b->method);
  };
  std::printf("selected: CMT-bone -> %s, Nekbone -> %s\n", best(cmt_rows),
              best(nek_rows));
  std::printf("(paper: all_reduce too expensive for both; CMT-bone picked\n"
              " pairwise exchange, Nekbone picked crystal router)\n");
  return 0;
}

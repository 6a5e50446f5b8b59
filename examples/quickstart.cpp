// Quickstart: the smallest complete CMT-bone run.
//
// Launches an 8-rank job, builds the proxy mini-app (5 conserved fields,
// linear flux, nearest-neighbor exchange + gs_op), advances a few steps and
// prints per-phase timings and the communication profile — a miniature of
// the paper's Figs. 4 and 8.
//
// Usage: quickstart [--ranks 8] [--n 6] [--elems 4] [--steps 5]

#include <cstdio>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 8)")
      .describe("n", "GLL points per direction (default 6)")
      .describe("elems", "global elements per direction (default 4)")
      .describe("steps", "time steps (default 5)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int ranks = cli.get_int("ranks", 8);
  core::Config cfg;
  cfg.n = cli.get_int("n", 6);
  cfg.ex = cfg.ey = cfg.ez = cli.get_int("elems", 4);
  const int steps = cli.get_int("steps", 5);

  std::vector<prof::CallProfile> call_profiles;
  comm::RunOptions opts;
  opts.call_profiles = &call_profiles;

  double l2 = 0.0, mass0 = 0.0, mass1 = 0.0;
  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    if (world.rank() == 0) mass0 = 0;  // set below collectively
    double m0 = driver.integral(0);
    driver.run(steps);
    double m1 = driver.integral(0);
    double norm = driver.l2_norm(0);
    if (world.rank() == 0) {
      mass0 = m0;
      mass1 = m1;
      l2 = norm;
    }
  }, opts);

  std::printf("CMT-bone quickstart: %d ranks, N=%d, %dx%dx%d elements, %d steps\n",
              ranks, cfg.n, cfg.ex, cfg.ey, cfg.ez, steps);
  std::printf("  mass integral:  %.12f -> %.12f (conserved)\n", mass0, mass1);
  std::printf("  L2 norm of field 0: %.6f\n\n", l2);

  // Merge every rank's call tree and print the Fig. 4-style profile.
  prof::CallProfile merged;
  for (const auto& p : call_profiles) merged.merge(p);
  std::printf("Execution profile (all ranks merged):\n%s\n",
              merged.tree_report().c_str());

  std::printf("%s\n", prof::comm_fraction_table(call_profiles).str().c_str());
  return 0;
}

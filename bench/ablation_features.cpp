// Ablation bench: cost of each design choice in the CMT-bone step.
//
// DESIGN.md calls out the tunable pieces — kernel loop-transformation
// variant, dealiasing, gs_op dssum, gather-scatter method, time
// integrator. This bench toggles one at a time against the shipped solver
// (the default Config: dispatched kernels, pairwise gs, dssum, SSP-RK3)
// and reports the per-step cost delta, quantifying what each feature buys
// or costs.
//
// Usage: ablation_features [--ranks 4] [--n 10] [--elems 4] [--steps 3]

#include <cstdio>
#include <functional>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "prof/timer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace cmtbone;

double time_per_step(int ranks, const core::Config& cfg, int steps) {
  double seconds = 0.0;
  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.step();  // warm-up
    world.barrier();
    prof::WallTimer t;
    driver.run(steps);
    world.barrier();
    if (world.rank() == 0) seconds = t.seconds() / steps;
  });
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 4)")
      .describe("n", "GLL points per direction (default 10)")
      .describe("elems", "global elements per direction (default 4)")
      .describe("steps", "timed steps per configuration (default 3)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int ranks = cli.get_int("ranks", 4);
  const int steps = cli.get_int("steps", 3);

  core::Config base;
  base.n = cli.get_int("n", 10);
  base.ex = base.ey = base.ez = cli.get_int("elems", 4);

  struct Variation {
    const char* name;
    std::function<void(core::Config&)> apply;
  };
  const std::vector<Variation> variations = {
      {"baseline (dispatch, pairwise, dssum, rk3)", [](core::Config&) {}},
      {"kernel: basic loops", [](core::Config& c) {
         c.variant = kernels::GradVariant::kBasic;
       }},
      {"kernel: fused+unrolled loops", [](core::Config& c) {
         c.variant = kernels::GradVariant::kFusedUnrolled;
       }},
      {"dealias round-trip on", [](core::Config& c) { c.dealias = true; }},
      {"dssum off (pure DG)", [](core::Config& c) { c.use_dssum = false; }},
      {"gs: crystal router", [](core::Config& c) {
         c.gs_method = gs::Method::kCrystalRouter;
       }},
      {"integrator: forward Euler (1 stage)", [](core::Config& c) {
         c.integrator = core::TimeIntegrator::kForwardEuler;
       }},
      {"integrator: RK4 (4 stages)", [](core::Config& c) {
         c.integrator = core::TimeIntegrator::kRk4;
       }},
  };

  std::printf("=== Ablation: per-step cost of CMT-bone design choices ===\n");
  std::printf("%d ranks, N=%d, %dx%dx%d elements, %d timed steps each\n\n",
              ranks, base.n, base.ex, base.ey, base.ez, steps);

  util::Table table({"configuration", "time/step (s)", "vs baseline"});
  double baseline = 0.0;
  for (const auto& v : variations) {
    core::Config cfg = base;
    v.apply(cfg);
    double t = time_per_step(ranks, cfg, steps);
    if (baseline == 0.0) baseline = t;
    char rel[32];
    std::snprintf(rel, sizeof rel, "%+.1f%%", 100.0 * (t - baseline) / baseline);
    table.add_row({v.name, util::Table::sci(t, 3), rel});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("(stage count scales the whole RHS pipeline; dealias adds\n"
              " mxm work; dssum adds one gs_op per field per step)\n");
  return 0;
}

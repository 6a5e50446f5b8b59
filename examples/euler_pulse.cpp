// Compressible Euler: an acoustic density pulse in a periodic box.
//
// The physics CMT-nek's explicit solver steps (minus multiphase coupling):
// five conserved fields, nonlinear Euler fluxes, Rusanov numerical flux.
// Demonstrates conservation tracking, CFL-adaptive stepping, mid-run
// checkpoint/restart, and VTK export for visualization. With
// --checkpoint-dir, a resilience::CheckpointCoordinator checkpoints the run
// at the half-way step and restores it into a fresh Driver, the path
// recovery and the service layer take.
//
// Usage: euler_pulse [--ranks 4] [--n 6] [--elems 2] [--steps 20]
//                    [--vtk out.vtk] [--checkpoint-dir DIR]

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "resilience/checkpoint_coordinator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 4)")
      .describe("n", "GLL points per direction (default 6)")
      .describe("elems", "global elements per direction (default 2)")
      .describe("steps", "time steps (default 20)")
      .describe("vtk", "write final state to this VTK file (rank 0 only)")
      .describe("checkpoint-dir",
                "checkpoint at the half-way step into this empty directory "
                "and restart from it");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int ranks = cli.get_int("ranks", 4);
  const int steps = cli.get_int("steps", 20);
  const std::string vtk = cli.get("vtk", "");
  const std::string ckpt_dir = cli.get("checkpoint-dir", "");

  core::Config cfg;
  cfg.physics = core::Physics::kEuler;
  cfg.n = cli.get_int("n", 6);
  cfg.ex = cfg.ey = cfg.ez = cli.get_int("elems", 2);
  cfg.cfl = 0.25;
  cfg.use_dssum = false;
  cfg.velocity = {0.5, 0.0, 0.0};  // background flow carrying the pulse

  util::Table table({"step", "time", "dt", "mass", "x-momentum", "energy"});
  table.set_title("Euler acoustic pulse: conserved quantities over time");

  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    // Gaussian density/pressure bump on a uniform background flow.
    auto ic = [&cfg](double x, double y, double z, int f) {
      double r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                  (z - 0.5) * (z - 0.5);
      double bump = 0.1 * std::exp(-r2 / 0.02);
      double rho = 1.0 + bump;
      double p = 1.0 + bump;
      double ux = cfg.velocity[0];
      switch (f) {
        case 0: return rho;
        case 1: return rho * ux;
        case 2: return 0.0;
        case 3: return 0.0;
        default: return p / (cfg.gamma - 1.0) + 0.5 * rho * ux * ux;
      }
    };
    driver.initialize(ic);

    auto snapshot = [&](int step) {
      // All of these are collectives; every rank must make the same calls.
      double mass = driver.integral(0);
      double momx = driver.integral(1);
      double energy = driver.integral(4);
      double dt = driver.compute_dt();
      if (world.rank() == 0) {
        table.add_row({std::to_string(step), util::Table::num(driver.time(), 5),
                       util::Table::sci(dt, 2), util::Table::num(mass, 10),
                       util::Table::num(momx, 10),
                       util::Table::num(energy, 10)});
      }
    };

    snapshot(0);
    const int half = steps / 2;
    driver.run(half);
    snapshot(half);

    if (!ckpt_dir.empty()) {
      // Checkpoint, then resume in a brand-new driver: restart must be
      // seamless.
      resilience::CheckpointOptions options;
      options.directory = ckpt_dir;
      options.prefix = "euler_pulse";
      options.interval = 0;  // explicit checkpoints only
      resilience::CheckpointCoordinator coordinator(world, options);
      coordinator.checkpoint_now(driver);
      core::Driver resumed(world, cfg);
      const long long epoch = coordinator.restore_latest(resumed);
      if (epoch != half) {
        throw std::runtime_error(ckpt_dir + " holds no step-" +
                                 std::to_string(half) +
                                 " checkpoint as its newest; pass an empty "
                                 "directory");
      }
      resumed.run(steps - half);
      double mass = resumed.integral(0);
      if (world.rank() == 0) {
        std::printf(
            "restarted from checkpoint at step %lld; final mass %.10f\n",
            epoch, mass);
      }
      if (!vtk.empty() && world.rank() == 0) resumed.export_vtk(vtk);
      return;
    }

    driver.run(steps - half);
    snapshot(steps);
    if (!vtk.empty() && world.rank() == 0) driver.export_vtk(vtk);
  });

  std::printf("%s\n", table.str().c_str());
  std::printf("Mass, momentum, and energy columns are constant to round-off:\n"
              "the DG surface fluxes telescope across faces (conservation).\n");
  return 0;
}

// §VI extension: validate the network model against the live runtime.
//
// Two validation loops, both prerequisites for trusting the model at scale:
//
//  1. Per-gs_op: calibrate LogGP parameters on the in-process fabric
//     (ping-pong latency, eager-send overhead, bulk bandwidth), measure the
//     three gather-scatter algorithms on a real mesh workload, and print
//     predicted vs measured per method — keyed by method, so the rows stay
//     honest if the tuner ever reorders or skips an algorithm.
//
//  2. Whole-run emulation: record a small run, distil its steady-state step
//     template (trace::extract_step_model), re-synthesize traces at several
//     rank counts, and replay them under the calibrated machine against the
//     wall time of *real* runs at those rank counts. --gate turns the
//     stated tolerance into an exit code for CI.
//
// Usage: netmodel_validation [--ranks 16] [--n 6] [--steps 3]
//                            [--tolerance 5.0] [--gate]

#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "netmodel/calibrate.hpp"
#include "prof/timer.hpp"
#include "trace/extrapolate.hpp"
#include "trace/replay.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

cmtbone::core::Config config_for(const cmtbone::mesh::BoxSpec& spec) {
  cmtbone::core::Config cfg;
  cfg.n = spec.n;
  cfg.ex = spec.ex;
  cfg.ey = spec.ey;
  cfg.ez = spec.ez;
  cfg.px = spec.px;
  cfg.py = spec.py;
  cfg.pz = spec.pz;
  cfg.periodic = spec.periodic;
  // CFL mode (the default): every step carries the dt reduction, which the
  // extractor needs as its per-step marker. Pairwise keeps the recorded
  // exchange structure in one-message-per-partner form.
  cfg.gs_method = cmtbone::gs::Method::kPairwise;
  return cfg;
}

// The in-process fabric time-slices ranks onto hardware threads once they
// outnumber cores, so a measured wall time is ~oversubscription(p) times
// the wall of a dedicated one-core-per-rank machine — the machine replay
// models. Recorded compute gaps carry the recording's own contention the
// same way. Both sides of the comparison are normalized through this.
double oversubscription(int ranks) {
  const unsigned hw = std::thread::hardware_concurrency();
  const double cores = hw == 0 ? 1.0 : double(hw);
  return ranks > cores ? double(ranks) / cores : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("ranks", "ranks for the per-gs_op table (default 16)")
      .describe("n", "GLL points per direction (default 6)")
      .describe("steps", "measured/emulated steps per validation run "
                         "(default 3)")
      .describe("tolerance", "emulation gate: max allowed predicted/measured "
                             "makespan ratio, either direction (default 5.0)")
      .describe("gate", "exit nonzero unless every emulated rank count is "
                        "within the tolerance");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  const int ranks = cli.get_int("ranks", 16);
  const int n = cli.get_int("n", 6);
  const int steps = cli.get_int("steps", 3);
  const double tolerance = cli.get_double("tolerance", 5.0);
  const bool gate = cli.has("gate");
  cli.reject_unknown();

  // --- part 1: per-gs_op predictions vs the startup tuner -------------------
  auto grid = mesh::BoxSpec::default_proc_grid(ranks);
  mesh::BoxSpec spec;
  spec.n = n;
  spec.px = grid[0];
  spec.py = grid[1];
  spec.pz = grid[2];
  spec.ex = 2 * grid[0];
  spec.ey = 2 * grid[1];
  spec.ez = 2 * grid[2];

  netmodel::LogGPParams machine;
  netmodel::ExchangeShape shape;
  std::vector<gs::GatherScatter::TuneRow> measured;
  comm::run(ranks, [&](comm::Comm& world) {
    netmodel::LogGPParams params = netmodel::calibrate(world);
    auto ids = mesh::global_gll_ids(
        mesh::ElementLayout::block(spec, world.rank()));
    gs::GatherScatter handle(world, ids, gs::Method::kPairwise);
    handle.tune(/*repetitions=*/10);
    if (world.rank() == 0) {
      machine = params;
      measured = handle.tuning();
      shape = handle.exchange_shape();
    }
  });

  std::printf("=== LogGP validation: predicted vs measured gs_op cost ===\n");
  std::printf(
      "calibrated fabric: latency %.2f us, overhead %.2f us, bandwidth "
      "%.2f GB/s, compute %.2f Gval/s\n\n",
      machine.latency * 1e6, machine.overhead * 1e6, machine.bandwidth / 1e9,
      machine.compute_rate / 1e9);

  auto predicted = netmodel::predict_all(machine, shape);
  // Key each measured row to its own method's prediction — the tuner may
  // reorder rows or skip the allreduce at large id spaces, so positional
  // pairing would silently compare across algorithms.
  auto prediction_for = [&](gs::Method m) {
    switch (m) {
      case gs::Method::kPairwise: return predicted.pairwise;
      case gs::Method::kCrystalRouter: return predicted.crystal;
      case gs::Method::kAllReduce: return predicted.allreduce;
      default: return 0.0;
    }
  };

  util::Table table(
      {"method", "measured avg (s)", "predicted (s)", "ratio meas/pred"});
  std::size_t meas_best = 0, pred_best = 0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const double pred = prediction_for(measured[i].method);
    double ratio = pred > 0 ? measured[i].avg / pred : 0.0;
    table.add_row({gs::method_name(measured[i].method),
                   util::Table::sci(measured[i].avg, 3),
                   util::Table::sci(pred, 3), util::Table::num(ratio, 2)});
    if (measured[i].avg < measured[meas_best].avg) meas_best = i;
    if (pred < prediction_for(measured[pred_best].method)) pred_best = i;
  }
  std::printf("%s\n", table.str().c_str());

  // The model earns trust if it at least orders the algorithms correctly.
  std::printf("measured winner:  %s\npredicted winner: %s -> %s\n",
              gs::method_name(measured[meas_best].method),
              gs::method_name(measured[pred_best].method),
              meas_best == pred_best ? "model ranks the algorithms correctly"
                                     : "model mis-ranks on this fabric");
  std::printf(
      "(absolute ratios reflect that the in-process fabric is not a real\n"
      " network: waits are scheduler-bound on one oversubscribed core)\n\n");

  // --- part 2: whole-run emulation vs real runs -----------------------------
  // Record the base run once, distil the step template, then predict the
  // makespan of real runs at other rank counts from the synthesized traces.
  const int base_ranks = 8;
  mesh::BoxSpec base;
  base.n = n;
  base.px = base.py = base.pz = 2;
  base.ex = base.ey = base.ez = 4;  // 2x2x2 elements per rank, weak-scaled

  trace::Recorder recorder(base_ranks);
  comm::RunOptions ropts;
  ropts.tracer = &recorder;
  comm::run(base_ranks, [&](comm::Comm& world) {
    core::Driver driver(world, config_for(base));
    driver.initialize(driver.default_ic());
    driver.run(steps + 2);  // extra steps so the tail is steady
  }, ropts);
  trace::Trace recorded = recorder.take();
  trace::StepModel model = trace::extract_step_model(recorded, base);

  std::printf(
      "=== Emulation validation: synthesized trace vs real runs ===\n"
      "base recording: %d ranks, %zu events, %zu phases/step, "
      "%.3g s/step\n\n",
      base_ranks, recorded.total_events(), model.phases.size(),
      model.step_seconds);

  util::Table etable({"ranks", "measured (s)", "emulated (s)",
                      "ratio", "within tol"});
  bool all_within = true;
  for (int p : {2, 4, 8, 16, 32}) {
    const mesh::BoxSpec target = trace::scale_spec(base, p);

    double wall = 0.0;
    comm::run(p, [&](comm::Comm& world) {
      core::Driver driver(world, config_for(target));
      driver.initialize(driver.default_ic());
      driver.run(1);  // warm allocations and the first-touch paths
      world.barrier();
      prof::WallTimer t;
      driver.run(steps);
      world.barrier();
      if (world.rank() == 0) wall = t.seconds();
    });

    // Descale the recorded gaps to dedicated-machine compute, replay under
    // the calibrated fabric, then re-apply the target's time-slicing factor
    // to land back in the in-process frame the wall clock measured.
    trace::Trace synthetic = trace::extrapolate(model, target, steps);
    trace::ReplayConfig rc;
    rc.machine = machine;
    rc.compute_scale = 1.0 / oversubscription(base_ranks);
    trace::ReplayResult rr = trace::replay(synthetic, rc);
    const double emulated = rr.makespan * oversubscription(p);

    const double ratio = (wall > 0 && emulated > 0)
                             ? std::max(wall / emulated, emulated / wall)
                             : std::numeric_limits<double>::infinity();
    const bool within = ratio <= tolerance;
    all_within = all_within && within;
    etable.add_row({util::Table::num(p, 0), util::Table::sci(wall, 3),
                    util::Table::sci(emulated, 3),
                    util::Table::num(ratio, 2), within ? "yes" : "NO"});
  }
  std::printf("%s\n", etable.str().c_str());
  std::printf(
      "tolerance: %.1fx either direction (in-process runs share cores, so\n"
      "wall times carry scheduler noise a LogGP fabric does not model)\n",
      tolerance);

  if (gate && !all_within) {
    std::printf("GATE FAILED: emulated makespan outside tolerance\n");
    return 1;
  }
  if (gate) std::printf("GATE PASSED\n");
  return 0;
}

// Overlap study: blocking vs split-phase (overlapped) surface exchange.
//
// Sweeps polynomial orders N in {5, 9, 13, 17, 21, 25} (element grid scaled
// down as N grows so every point does comparable work) across rank counts,
// timing the same simulation with config.overlap off and on. A final
// chaos-straggler scenario slows one rank's message path by a large factor
// — the regime where hiding communication behind interior compute pays —
// and checks the overlapped path keeps its throughput advantage there.
// Results land in BENCH_overlap.json.
//
// Usage: overlap_study [--steps 5] [--json BENCH_overlap.json]
//        overlap_study --smoke   CI gate: single rank, blocking and
//                                overlapped runs in alternating pairs; exits
//                                nonzero if the median per-pair ratio says
//                                the overlapped path is more than 5% slower
//                                (the overlap machinery must be ~free when
//                                there is nothing to hide).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "balance/rebalancer.hpp"
#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "prof/callprof.hpp"
#include "prof/timer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;

struct RunResult {
  double seconds = 0.0;         // timed steps, rank-0 wall clock
  double hidden_fraction = 0.0; // overlap runs only
  double imbalance = 1.0;       // max/mean busy thread-CPU time across ranks
};

// Which physics system the study runs (--physics). The proxy default is
// the mini-app; burgers/euler exercise the nonlinear flux paths under the
// same exchange machinery.
cmtbone::core::Physics g_physics = cmtbone::core::Physics::kProxyAdvection;

Config study_config(int n, int e) {
  Config cfg;
  cfg.physics = g_physics;
  cfg.n = n;
  cfg.ex = cfg.ey = cfg.ez = e;
  cfg.fixed_dt = 1e-4;
  return cfg;
}

int elems_for(int n) {
  if (n <= 5) return 6;
  if (n <= 13) return 4;
  return 2;
}

RunResult best_run(int nranks, const Config& cfg, int steps,
                   const ChaosPolicy* policy, int reps);

// compute / (compute + finish) over the timed steps: the share of the
// exchange the window hid. 1.0 means the wait had fully drained by the time
// finish ran; 0.0 means nothing was hidden (the blocking path has no
// window).
double hidden_fraction(const cmtbone::prof::CallProfile& profile) {
  const double compute = profile.region("overlap_window").inclusive;
  const double finish = profile.region("exchange_finish").inclusive;
  return compute + finish > 0.0 ? compute / (compute + finish) : 0.0;
}

RunResult time_run(int nranks, const Config& cfg, int steps,
                   const ChaosPolicy* policy) {
  RunResult result;
  cmtbone::comm::RunOptions options;
  ChaosEngine engine(policy ? *policy : ChaosPolicy{}, nranks);
  if (policy) options.chaos = &engine;
  std::vector<cmtbone::prof::CallProfile> profiles;
  options.call_profiles = &profiles;
  cmtbone::comm::run(
      nranks,
      [&](Comm& world) {
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        driver.run(1);  // warm up allocations and message buffers
        cmtbone::prof::reset_thread_profile();
        driver.reset_balance_stats();
        world.barrier();
        cmtbone::prof::WallTimer t;
        driver.run(steps);
        world.barrier();
        const double wall = t.seconds();
        const cmtbone::balance::Imbalance imb =
            cmtbone::balance::measure_imbalance(
                world, driver.balance_stats().busy_seconds());
        if (world.rank() == 0) {
          result.seconds = wall;
          result.imbalance = imb.factor();
        }
      },
      options);
  result.hidden_fraction = hidden_fraction(profiles.at(0));
  return result;
}

// Best-of-reps to shed scheduler noise; chaos delays are seeded, so every
// rep of a chaos run injects the identical delay schedule.
RunResult best_run(int nranks, const Config& cfg, int steps,
                   const ChaosPolicy* policy, int reps) {
  RunResult best;
  for (int r = 0; r < reps; ++r) {
    RunResult got = time_run(nranks, cfg, steps, policy);
    if (r == 0 || got.seconds < best.seconds) best = got;
  }
  return best;
}

struct Row {
  std::string scenario;
  int n = 0, e = 0, ranks = 0, steps = 0;
  double blocking_s = 0, overlap_s = 0, hidden = 0;
  double blocking_imb = 1, overlap_imb = 1;  // max/mean busy CPU time
  double speedup() const { return blocking_s / overlap_s; }
};

int run_smoke(int steps, int pairs) {
  // Single rank: every face pairs locally, so the overlapped path does all
  // the same work plus the split-phase bookkeeping. Gate: that bookkeeping
  // must cost under 5%, read as the median of paired ratios. Both drivers
  // live through the whole gate, so a sample times only its steps, never
  // set-up, and the two samples of a pair run back to back.
  const Config blocking_cfg = study_config(9, 4);
  Config overlap_cfg = blocking_cfg;
  overlap_cfg.overlap = true;
  cmtbone::bench::PairedRatio r;
  cmtbone::comm::run(1, [&](Comm& world) {
    Driver blocking(world, blocking_cfg), overlapped(world, overlap_cfg);
    for (Driver* d : {&blocking, &overlapped}) {
      d->initialize(d->default_ic());
      d->run(1);  // warm up allocations
    }
    auto seconds = [&](Driver& d) {
      cmtbone::prof::WallTimer t;
      d.run(steps);
      return t.seconds();
    };
    r = cmtbone::bench::paired_ratio(
        pairs, [&] { return seconds(blocking); },
        [&] { return seconds(overlapped); });
  });
  std::printf(
      "overlap smoke (1 rank, N=9, 4^3 elements, %d steps, %d pairs):\n"
      "  blocking median %.4fs, overlapped median %.4fs, "
      "median pair ratio %.3f (quartiles %.3f-%.3f)\n",
      steps, pairs, r.reference_median, r.candidate_median, r.median, r.q1,
      r.q3);
  if (r.median > 1.05) {
    std::printf("FAIL: overlapped path is more than 5%% slower than "
                "blocking on one rank\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("steps", "timed steps per run (default 5)")
      .describe("reps", "repetitions: best-of for the study (default 3), "
                        "alternating pairs for --smoke (default 30)")
      .describe("json", "output file (default BENCH_overlap.json)")
      .describe("physics",
                "physics system: proxy|advection|burgers|euler "
                "(default proxy)")
      .describe("smoke",
                "CI gate: single-rank check that overlap costs < 5%");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  if (!core::physics_from_name(cli.get("physics", "proxy"), &g_physics)) {
    std::fprintf(stderr, "unknown --physics name\n");
    return 1;
  }

  const int steps = cli.get_int("steps", 5);
  if (cli.has("smoke")) return run_smoke(steps, cli.get_int("reps", 30));
  const int reps = cli.get_int("reps", 3);
  const std::string json_path = cli.get("json", "BENCH_overlap.json");

  std::vector<Row> rows;

  // --- N sweep across rank counts, quiet network -------------------------
  for (int n : {5, 9, 13, 17, 21, 25}) {
    for (int ranks : {1, 4}) {
      Config cfg = study_config(n, elems_for(n));
      Row row;
      row.scenario = "sweep";
      row.n = n;
      row.e = cfg.ex;
      row.ranks = ranks;
      row.steps = steps;
      RunResult blocking = best_run(ranks, cfg, steps, nullptr, reps);
      row.blocking_s = blocking.seconds;
      row.blocking_imb = blocking.imbalance;
      cfg.overlap = true;
      RunResult overlap = best_run(ranks, cfg, steps, nullptr, reps);
      row.overlap_s = overlap.seconds;
      row.hidden = overlap.hidden_fraction;
      row.overlap_imb = overlap.imbalance;
      rows.push_back(row);
      std::printf("sweep  N=%2d %d^3 elems %d ranks: blocking %.4fs "
                  "overlapped %.4fs (%.2fx, %.0f%% hidden)\n",
                  n, row.e, ranks, row.blocking_s, row.overlap_s,
                  row.speedup(), 100.0 * row.hidden);
    }
  }

  // --- chaos stragglers: random per-op delays, a different rank lags each
  // window ------------------------------------------------------------------
  // Per-op delay jitter is the system-noise model: whichever rank draws the
  // largest delays is that exchange window's straggler. The blocking path
  // re-synchronizes every window and so pays the per-window MAX of the
  // jitter; the overlapped path hides neighbor lateness behind interior
  // compute and pays only each rank's own share. (A rank slowed by a
  // CONSTANT factor gates both paths equally — its delays sit on its own
  // critical path and nothing can hide them — so the jitter regime is where
  // split-phase exchange earns its keep.)
  {
    const int ranks = 4;
    ChaosPolicy policy;
    policy.seed = 2015;
    policy.delay_probability = 0.08;  // sparse but heavy: one rank usually
    policy.max_delay_us = 10000;      // draws the big delay per window
    policy.hold_probability = 0.0;    // holds are tick-driven, not wall clock

    Config cfg = study_config(13, 4);
    Row row;
    row.scenario = "chaos_straggler";
    row.n = 13;
    row.e = cfg.ex;
    row.ranks = ranks;
    row.steps = 2 * steps;
    RunResult blocking = best_run(ranks, cfg, row.steps, &policy, reps);
    row.blocking_s = blocking.seconds;
    row.blocking_imb = blocking.imbalance;
    cfg.overlap = true;
    RunResult overlap = best_run(ranks, cfg, row.steps, &policy, reps);
    row.overlap_s = overlap.seconds;
    row.hidden = overlap.hidden_fraction;
    row.overlap_imb = overlap.imbalance;
    rows.push_back(row);
    std::printf("chaos  N=%2d %d^3 elems %d ranks (jitter stragglers): "
                "blocking %.4fs overlapped %.4fs (%.2fx, %.0f%% hidden)\n",
                row.n, row.e, ranks, row.blocking_s, row.overlap_s,
                row.speedup(), 100.0 * row.hidden);
  }

  util::Table table({"scenario", "N", "elems/dir", "ranks",
                     "blocking (s)", "overlapped (s)", "speedup",
                     "hidden frac", "imbalance"});
  table.set_title("Split-phase exchange overlap study");
  for (const Row& r : rows) {
    table.add_row({r.scenario, std::to_string(r.n), std::to_string(r.e),
                   std::to_string(r.ranks), util::Table::num(r.blocking_s, 4),
                   util::Table::num(r.overlap_s, 4),
                   util::Table::num(r.speedup(), 2),
                   util::Table::num(r.hidden, 2),
                   util::Table::num(r.blocking_imb, 2)});
  }
  std::printf("\n%s\n", table.str().c_str());

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"overlap_study\",\n"
               "  \"physics\": \"%s\",\n"
               "  \"timing\": \"rank-0 wall clock, best of %d runs of %d "
               "steps after one warm-up step\",\n"
               "  \"chaos_straggler\": \"sparse heavy delay jitter "
               "(delay_probability 0.08, max 10ms): a different rank "
               "straggles each exchange window\",\n"
               "  \"imbalance\": \"max/mean busy thread-CPU seconds across "
               "ranks (1.0 = perfectly balanced); see bench/balance_study "
               "for the dynamic balancer that drives it down\",\n"
               "  \"results\": [\n",
               core::physics_name(g_physics), reps, steps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"n\": %d, \"elems_per_dir\": "
                 "%d, \"ranks\": %d, \"steps\": %d, "
                 "\"blocking_seconds\": %.6f, \"overlap_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"hidden_fraction\": %.3f, "
                 "\"blocking_imbalance\": %.4f, \"overlap_imbalance\": "
                 "%.4f}%s\n",
                 r.scenario.c_str(), r.n, r.e, r.ranks, r.steps,
                 r.blocking_s, r.overlap_s, r.speedup(), r.hidden,
                 r.blocking_imb, r.overlap_imb,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("(json written to %s)\n", json_path.c_str());
  return 0;
}

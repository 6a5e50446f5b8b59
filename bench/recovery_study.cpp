// Recovery study: what resilience costs and what a failure costs.
//
// Part 1 sweeps the checkpoint interval K — every K steps the coordinator
// agrees on an epoch, writes CRC32-protected per-rank files, and ships each
// payload to a buddy rank — and reports per-step overhead against the same
// run with checkpointing off. Part 2 injects a chaos kill mid-run and
// measures the full repair bill: failure-detection latency on the
// survivors, steps rolled back to the last committed epoch, time to
// restore, and the end-to-end wall-clock ratio vs an uninterrupted run.
// Results land in BENCH_recovery.json.
//
// Usage: recovery_study [--steps 40] [--json BENCH_recovery.json]
//        recovery_study --smoke   CI gate: no-checkpoint and K=10 runs in
//                                 alternating pairs; exits nonzero if the
//                                 median per-pair ratio says the K=10
//                                 cadence costs more than 10% per step;
//                                 also writes the JSON.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "prof/timer.hpp"
#include "resilience/checkpoint_coordinator.hpp"
#include "resilience/recovery.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;

using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::resilience::CheckpointCoordinator;
using cmtbone::resilience::CheckpointOptions;
using cmtbone::resilience::RecoveryOptions;
using cmtbone::resilience::RecoveryPolicy;
using cmtbone::resilience::RecoveryReport;

Config study_config() {
  Config cfg;
  cfg.n = 6;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.fixed_dt = 1e-4;
  return cfg;  // proxy physics: five fields, the mini-app abstraction
}

// Scratch directory for one timed run's checkpoint files. `in_memory`
// places it on tmpfs (when the host has one) so the measurement isolates
// the checkpoint machinery from the scratch disk's fsync latency.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag, bool in_memory = false) {
    fs::path base = fs::temp_directory_path();
    if (in_memory) {
      std::error_code ec;
      if (fs::is_directory("/dev/shm", ec)) base = "/dev/shm";
    }
    path = base /
           ("cmtbone_recovery_" + std::to_string(::getpid()) + "_" + tag);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// Time `steps` steps, checkpointing every `interval` (0 = no coordinator).
// Returns rank-0 wall seconds over the timed steps.
double time_run(int nranks, const Config& cfg, int steps, int interval,
                cmtbone::prof::RecoveryStats* stats = nullptr) {
  ScratchDir scratch("k" + std::to_string(interval));
  double seconds = 0.0;
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(1);  // warm up allocations and message buffers
    world.barrier();
    cmtbone::prof::WallTimer t;
    if (interval > 0) {
      CheckpointOptions opt;
      opt.directory = scratch.path.string();
      opt.interval = interval;
      opt.stats = stats;
      CheckpointCoordinator coord(world, opt);
      driver.run(steps, [&](Driver& d) { coord.maybe_checkpoint(d); });
    } else {
      driver.run(steps);
    }
    world.barrier();
    if (world.rank() == 0) seconds = t.seconds();
  });
  return seconds;
}

double median_run(int nranks, const Config& cfg, int steps, int interval,
                  int reps, cmtbone::prof::RecoveryStats* stats = nullptr) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    t.push_back(time_run(nranks, cfg, steps, interval,
                         r == 0 ? stats : nullptr));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct SweepRow {
  int interval = 0;  // 0 = checkpointing off
  double seconds = 0.0;
  double overhead = 0.0;  // vs interval 0
  long long bytes_per_epoch = 0;
};

struct KillRow {
  std::string scenario;
  int ranks = 0;
  double uninterrupted_s = 0.0;
  double recovered_s = 0.0;
  int failures = 0;
  long long steps_lost = 0;
  long long restored_epoch = -1;
  double detection_mean_s = 0.0;
  double mttr_s = 0.0;
};

int run_smoke(int pairs) {
  // Gate: at the default production cadence (K >= 10) the coordinated
  // checkpoint machinery — epoch agreement, serialize, CRC, atomic write,
  // buddy exchange, barrier, prune — must cost under 10% per step. The
  // gate runs at the paper's N=10 with ~100 elements per rank (the Fig. 7
  // per-rank load) so a step carries production-like compute; the
  // sub-paper sweep configs deliberately shrink the step until
  // durable-write latency dominates, which is the trade the full study
  // plots, not a regression. Checkpoints land on tmpfs when the host has
  // one: the gate bounds the machinery's own cost, and the scratch disk's
  // fsync latency — which varies by orders of magnitude across CI
  // machines and is not a property of this code — is the full study's
  // subject, not the gate's.
  // The two run as paired_ratio() pairs on two drivers that live through
  // the whole gate (one with a coordinator), so a sample times only its
  // steps, never set-up, and host drift between pairs cancels instead of
  // landing in the ratio. Each 20-step sample crosses two K=10 boundaries.
  Config cfg = study_config();
  cfg.n = 10;
  cfg.ex = cfg.ey = cfg.ez = 6;
  const int nranks = 2;
  const int steps = 20;
  ScratchDir scratch("smoke", /*in_memory=*/true);
  cmtbone::bench::PairedRatio r;
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver plain(world, cfg), checkpointed(world, cfg);
    for (Driver* d : {&plain, &checkpointed}) {
      d->initialize(d->default_ic());
      d->run(1);  // warm up allocations and message buffers
    }
    CheckpointOptions opt;
    opt.directory = scratch.path.string();
    opt.interval = 10;
    CheckpointCoordinator coord(world, opt);
    auto seconds = [&](Driver& d, const Driver::StepHook& hook) {
      world.barrier();
      cmtbone::prof::WallTimer t;
      d.run(steps, hook);
      world.barrier();
      return t.seconds();
    };
    const cmtbone::bench::PairedRatio mine = cmtbone::bench::paired_ratio(
        pairs, [&] { return seconds(plain, [](Driver&) {}); },
        [&] {
          return seconds(checkpointed,
                         [&](Driver& d) { coord.maybe_checkpoint(d); });
        });
    if (world.rank() == 0) r = mine;
  });
  const double overhead = r.median - 1.0;
  std::printf(
      "recovery smoke (%d ranks, N=%d, %d^3 elements, %d steps, %d pairs):\n"
      "  no-checkpoint median %.4fs, K=10 median %.4fs, median pair ratio "
      "%.3f (quartiles %.3f-%.3f), overhead %.1f%%\n",
      nranks, cfg.n, cfg.ex, steps, pairs, r.reference_median,
      r.candidate_median, r.median, r.q1, r.q3, 100.0 * overhead);
  if (overhead > 0.10) {
    std::printf("FAIL: K=10 checkpointing costs more than 10%% per step\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("steps", "timed steps per run (default 40)")
      .describe("reps", "repetitions, median taken (default 3); with "
                        "--smoke, alternating pairs (default 10)")
      .describe("ranks", "ranks for the sweep and kill scenarios (default 2)")
      .describe("json", "output file (default BENCH_recovery.json)")
      .describe("smoke", "CI gate: K=10 checkpoint overhead must be < 10%");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  const int steps = cli.get_int("steps", 40);
  const int nranks = cli.get_int("ranks", 2);
  const std::string json_path = cli.get("json", "BENCH_recovery.json");
  const bool smoke = cli.has("smoke");
  const int reps = cli.get_int("reps", smoke ? 10 : 3);
  const Config cfg = study_config();

  int smoke_rc = 0;
  if (smoke) smoke_rc = run_smoke(reps);

  // --- checkpoint-interval sweep -----------------------------------------
  std::vector<SweepRow> sweep;
  const double base =
      smoke ? 0.0 : median_run(nranks, cfg, steps, 0, reps);
  if (!smoke) {
    sweep.push_back({0, base, 0.0, 0});
    for (int k : {1, 2, 5, 10, 20}) {
      prof::RecoveryStats stats;
      SweepRow row;
      row.interval = k;
      row.seconds = median_run(nranks, cfg, steps, k, reps, &stats);
      row.overhead = row.seconds / base - 1.0;
      row.bytes_per_epoch =
          stats.checkpoints > 0 ? stats.checkpoint_bytes / stats.checkpoints
                                : 0;
      sweep.push_back(row);
      std::printf("sweep  K=%2d: %.4fs (%+.1f%%), %lld bytes/epoch/rank\n", k,
                  row.seconds, 100.0 * row.overhead, row.bytes_per_epoch);
    }
  }

  // --- kill-and-recover scenarios ----------------------------------------
  std::vector<KillRow> kills;
  if (!smoke) {
    struct Scenario {
      const char* name;
      long long kill_step;
    };
    const int kill_steps = steps;
    for (const Scenario& s :
         {Scenario{"early", kill_steps / 5}, Scenario{"mid", kill_steps / 2},
          Scenario{"late", kill_steps - 2}}) {
      KillRow row;
      row.scenario = s.name;
      row.ranks = nranks;
      row.uninterrupted_s = base;

      ScratchDir scratch(std::string("kill_") + s.name);
      ChaosPolicy policy;
      policy.seed = 2015;
      policy.kill_rank = nranks - 1;
      policy.kill_step = std::max(1ll, s.kill_step);
      ChaosEngine engine(policy, nranks);

      RecoveryPolicy rpolicy;
      rpolicy.backoff_initial_ms = 0.1;
      RecoveryOptions options;
      options.checkpoint.directory = scratch.path.string();
      options.checkpoint.interval = 10;
      options.chaos = &engine;

      prof::WallTimer t;
      RecoveryReport report =
          resilience::run_with_recovery(nranks, cfg, kill_steps, rpolicy,
                                        options);
      row.recovered_s = t.seconds();
      row.failures = report.failures;
      row.steps_lost = report.stats.steps_lost;
      row.restored_epoch = report.last_restored_epoch;
      row.detection_mean_s = report.stats.mean_detection_seconds();
      row.mttr_s = report.stats.mttr_seconds();
      kills.push_back(row);
      std::printf(
          "kill   %-5s (step %lld): %.4fs vs %.4fs clean, %d failure(s), "
          "%lld steps lost, restored epoch %lld, detect %.1fms, MTTR %.1fms\n",
          s.name, policy.kill_step, row.recovered_s, row.uninterrupted_s,
          row.failures, row.steps_lost, row.restored_epoch,
          1e3 * row.detection_mean_s, 1e3 * row.mttr_s);
    }

    util::Table table({"K", "seconds", "overhead", "bytes/epoch/rank"});
    table.set_title("Checkpoint-interval overhead sweep");
    for (const SweepRow& r : sweep) {
      table.add_row({r.interval == 0 ? "off" : std::to_string(r.interval),
                     util::Table::num(r.seconds, 4),
                     util::Table::num(100.0 * r.overhead, 1) + "%",
                     std::to_string(r.bytes_per_epoch)});
    }
    std::printf("\n%s\n", table.str().c_str());
  }

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"recovery_study\",\n"
               "  \"mode\": \"%s\",\n"
               "  \"config\": {\"ranks\": %d, \"n\": %d, \"elems_per_dir\": "
               "%d, \"steps\": %d, \"reps\": %d},\n"
               "  \"protocol\": \"coordinated epoch checkpoints, CRC32 + "
               "atomic rename, buddy replication to rank+1, two-version "
               "ring\",\n",
               smoke ? "smoke" : "full", nranks, cfg.n, cfg.ex, steps, reps);
  std::fprintf(out, "  \"interval_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(out,
                 "    {\"interval\": %d, \"seconds\": %.6f, \"overhead\": "
                 "%.4f, \"bytes_per_epoch_per_rank\": %lld}%s\n",
                 r.interval, r.seconds, r.overhead, r.bytes_per_epoch,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"kill_scenarios\": [\n");
  for (std::size_t i = 0; i < kills.size(); ++i) {
    const KillRow& r = kills[i];
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"ranks\": %d, \"uninterrupted_seconds\": "
        "%.6f, \"recovered_seconds\": %.6f, \"failures\": %d, "
        "\"steps_lost\": %lld, \"restored_epoch\": %lld, "
        "\"detection_mean_seconds\": %.6f, \"mttr_seconds\": %.6f}%s\n",
        r.scenario.c_str(), r.ranks, r.uninterrupted_s, r.recovered_s,
        r.failures, r.steps_lost, r.restored_epoch, r.detection_mean_s,
        r.mttr_s, i + 1 < kills.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("(json written to %s)\n", json_path.c_str());
  return smoke_rc;
}

// Load-balancing study: dynamic repartitioning (measured per-element cost
// model + bounded element migration) vs the static block partition.
//
// Scenarios:
//   clustered — a dense particle cluster lands on one rank's elements; the
//               regime the balancer exists for (CI gate: >= 1.3x modeled
//               time-to-solution).
//   front     — a dense particle slab re-injected at an advancing position;
//               the hot region marches across rank boundaries and the
//               balancer has to keep following it.
//   straggler — chaos per-rank message-delay slowdown over a *uniform*
//               workload: external jitter must not trick the measured
//               (CPU-clock) cost model into migration churn, and results
//               must stay bit-identical under the delays.
//   overhead  — uniform single-rank workload: everything the balancing
//               machinery adds (ordered gs folds, cost timers, no-op
//               epochs) must cost < 3% busy CPU time.
//
// Time-to-solution metric: the harness runs ranks as threads sharing this
// host's cores, so run wall clock cannot tell element layouts apart — the
// same total work executes time-sliced either way. What a one-rank-per-node
// bulk-synchronous run experiences is the per-step critical path, so the
// study reports, summed over steps, the max-over-ranks busy thread-CPU time
// of each step (grid + particle + rebalance overhead, prof::CpuTimer —
// blocked waits and time descheduled for other rank-threads accrue nothing)
// as the modeled time-to-solution, alongside the raw wall clock. The
// per-step sum matters for the front scenario: the moving hotspot straggles
// a different rank each phase, which run-total per-rank busy time would
// average away. Every balanced run is also checked bit-identical against
// the ordered static reference (config.ordered_gs, balance_interval = 0) —
// migration changes where elements live, never what the fields hold.
//
// Usage: balance_study [--steps 40] [--reps 3] [--particles 20000]
//                      [--json BENCH_balance.json]
//        balance_study --smoke   CI gate: clustered scenario must beat
//                                static by >= 1.3x modeled time-to-solution
//                                with bit-identical fields, and single-rank
//                                overhead must stay under 3% (median of
//                                alternating pairs).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "balance/rebalancer.hpp"
#include "balance/scenarios.hpp"
#include "bench_common.hpp"
#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "prof/timer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
namespace balance = cmtbone::balance;

enum class Cloud { kNone, kCluster, kFront };

struct RunResult {
  double wall_seconds = 0;  // rank-0 wall clock over the timed steps
  // Modeled time-to-solution: sum over timed steps of the per-step
  // max-over-ranks busy thread-CPU time. Summing per step matters: a
  // moving hotspot (the front scenario) straggles a *different* rank each
  // phase, which run-total per-rank busy time averages away but a real
  // bulk-synchronous run still pays every step.
  double critical_seconds = 0;
  double mean_seconds = 0;  // sum of per-step mean busy: total work / ranks
  long long epochs = 0;     // rebalance epochs applied
  long long moves = 0;      // elements migrated
  std::vector<std::vector<double>> fields;  // dense global-by-gid, per field

  double imbalance() const {
    return mean_seconds > 0 ? critical_seconds / mean_seconds : 1.0;
  }
};

// Which physics system the study runs (--physics). The proxy default is
// the mini-app; burgers/euler exercise the nonlinear flux + carrier paths.
cmtbone::core::Physics g_physics = cmtbone::core::Physics::kProxyAdvection;

Config base_config(int n, int e) {
  Config cfg;
  cfg.physics = g_physics;
  cfg.n = n;
  cfg.ex = cfg.ey = cfg.ez = e;
  cfg.fixed_dt = 1e-3;
  cfg.particles_per_rank = 8;    // enables the tracker (uniform background)
  cfg.particle_coupling = 0.01;  // two-way deposit: particles touch the bits
  return cfg;
}

/// The bit-identity reference: static layout under the same key-canonical
/// gs folds the balanced run is forced onto.
Config static_config(Config cfg) {
  cfg.balance_interval = 0;
  cfg.ordered_gs = true;
  return cfg;
}

Config balanced_config(Config cfg, int interval, int max_moves) {
  cfg.balance_interval = interval;
  cfg.balance_max_moves = max_moves;
  return cfg;
}

RunResult time_run(int nranks, const Config& cfg, int steps, Cloud cloud,
                   long long particle_count, const ChaosPolicy* policy) {
  RunResult result;
  cmtbone::comm::RunOptions options;
  ChaosEngine engine(policy ? *policy : ChaosPolicy{}, nranks);
  if (policy) options.chaos = &engine;
  const int refresh = std::max(1, steps / 4);
  cmtbone::comm::run(
      nranks,
      [&](Comm& world) {
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        if (cloud == Cloud::kCluster) {
          balance::ClusterSpec cs;
          cs.count = particle_count;
          const auto cloud_particles = balance::clustered_cloud(cs);
          driver.tracker()->adopt_global(cloud_particles);
        } else if (cloud == Cloud::kFront) {
          balance::FrontSpec fs;
          fs.count = particle_count;
          const auto slab = balance::front_cloud(fs, 0.05);
          driver.tracker()->adopt_global(slab);
        }
        driver.run(1);  // warm up allocations and message buffers
        driver.reset_balance_stats();
        world.barrier();
        cmtbone::prof::WallTimer t;
        // Per-step critical-path accumulation: allreduce each step's busy
        // delta and sum the cross-rank max. The same hook drives the front
        // scenario's slab re-injection — at an advancing position every few
        // steps, so the hot region sweeps the domain (and rank boundaries)
        // faster than advection alone would carry it. The schedule depends
        // only on the step count, so static and balanced runs see the
        // identical particle history.
        double prev_busy = 0, critical = 0, mean_total = 0;
        balance::FrontSpec fs;
        fs.count = particle_count;
        const long first = driver.steps_taken();
        driver.run(steps, [&](Driver& d) {
          const double busy = d.balance_stats().busy_seconds();
          const balance::Imbalance step_imb =
              balance::measure_imbalance(world, busy - prev_busy);
          prev_busy = busy;
          critical += step_imb.max_busy;
          mean_total += step_imb.mean_busy;
          if (cloud == Cloud::kFront) {
            const long done = d.steps_taken() - first;
            if (done % refresh == 0 && done < steps) {
              const double pos = 0.05 + 0.8 * double(done) / double(steps);
              const auto moved = balance::front_cloud(fs, pos);
              d.tracker()->adopt_global(moved);
            }
          }
        });
        world.barrier();
        const double wall = t.seconds();
        std::vector<std::vector<double>> fields;
        for (int f = 0; f < driver.nfields(); ++f) {
          fields.push_back(driver.gather_global_field(f));
        }
        if (world.rank() == 0) {
          result.wall_seconds = wall;
          result.critical_seconds = critical;
          result.mean_seconds = mean_total;
          result.epochs = driver.rebalance_epochs();
          result.moves = driver.rebalance_moves();
          result.fields = std::move(fields);
        }
      },
      options);
  return result;
}

// Best-of-reps to shed scheduler noise. The fields are deterministic across
// reps (chaos injects delays, never value changes), so any rep's copy works
// for the bit-identity check.
RunResult best_run(int nranks, const Config& cfg, int steps, Cloud cloud,
                   long long particle_count, const ChaosPolicy* policy,
                   int reps, bool by_wall) {
  RunResult best;
  for (int r = 0; r < reps; ++r) {
    RunResult got = time_run(nranks, cfg, steps, cloud, particle_count,
                             policy);
    const double key = by_wall ? got.wall_seconds : got.critical_seconds;
    const double best_key = by_wall ? best.wall_seconds : best.critical_seconds;
    if (r == 0 || key < best_key) best = got;
  }
  return best;
}

bool bit_identical(const RunResult& a, const RunResult& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (std::size_t f = 0; f < a.fields.size(); ++f) {
    if (a.fields[f].size() != b.fields[f].size()) return false;
    if (std::memcmp(a.fields[f].data(), b.fields[f].data(),
                    a.fields[f].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::string scenario;
  int n = 0, e = 0, ranks = 0, steps = 0;
  long long particles = 0;
  RunResult stat, bal;
  bool identical = false;

  // Static / balanced critical-path ratio: the modeled speedup a
  // one-rank-per-node run would see.
  double modeled_speedup() const {
    return bal.critical_seconds > 0 ? stat.critical_seconds / bal.critical_seconds : 1.0;
  }
};

Row run_scenario(const std::string& name, int nranks, const Config& base,
                 int steps, Cloud cloud, long long particles,
                 const ChaosPolicy* policy, int interval, int reps) {
  Row row;
  row.scenario = name;
  row.n = base.n;
  row.e = base.ex;
  row.ranks = nranks;
  row.steps = steps;
  row.particles = particles;
  row.stat = best_run(nranks, static_config(base), steps, cloud, particles,
                      policy, reps, /*by_wall=*/false);
  row.bal = best_run(nranks, balanced_config(base, interval, 16), steps,
                     cloud, particles, policy, reps, /*by_wall=*/false);
  row.identical = bit_identical(row.stat, row.bal);
  std::printf(
      "%-9s %d ranks: modeled static %.4fs balanced %.4fs (%.2fx)  "
      "imbalance %.2f -> %.2f  epochs %lld moves %lld  bits %s\n",
      name.c_str(), nranks, row.stat.critical_seconds, row.bal.critical_seconds,
      row.modeled_speedup(), row.stat.imbalance(), row.bal.imbalance(),
      row.bal.epochs, row.bal.moves, row.identical ? "identical" : "DIFFER");
  return row;
}

/// Single-rank overhead: balanced config (which implies ordered gs folds,
/// cost timers, and a no-op rebalance epoch every interval) vs the plain
/// static default, in paired_ratio() pairs on two drivers that live through
/// the whole measurement, so a sample times only its steps; 1 rank so
/// threads do not multiplex.
struct OverheadResult {
  // The gated ratio is CPU busy time: it counts exactly the work the
  // balancing machinery adds (cost timers, no-op epochs, migration
  // plumbing) and is immune to the few-percent scheduler noise that makes
  // short wall-clock runs flap. Wall time is reported alongside.
  cmtbone::bench::PairedRatio busy;           // balanced / static
  double static_wall = 0, balanced_wall = 0;  // median wall seconds
  double wall_ratio() const { return balanced_wall / static_wall; }
};

OverheadResult overhead_run(int steps, int pairs) {
  Config cfg = base_config(9, 3);
  cfg.particles_per_rank = 64;
  const Config plain_cfg = cfg;  // defaults: no ordered gs, no balancing
  const Config bal_cfg = balanced_config(cfg, 5, 16);
  std::vector<double> static_wall, balanced_wall;
  OverheadResult out;
  cmtbone::comm::run(1, [&](Comm& world) {
    Driver plain(world, plain_cfg), bal(world, bal_cfg);
    for (Driver* d : {&plain, &bal}) {
      d->initialize(d->default_ic());
      d->run(1);  // warm up allocations
    }
    auto busy_seconds = [&](Driver& d, std::vector<double>* wall) {
      const double before = d.balance_stats().busy_seconds();
      cmtbone::prof::WallTimer t;
      d.run(steps);
      wall->push_back(t.seconds());
      return d.balance_stats().busy_seconds() - before;
    };
    out.busy = cmtbone::bench::paired_ratio(
        pairs, [&] { return busy_seconds(plain, &static_wall); },
        [&] { return busy_seconds(bal, &balanced_wall); });
  });
  out.static_wall = cmtbone::bench::quantile(static_wall, 0.5);
  out.balanced_wall = cmtbone::bench::quantile(balanced_wall, 0.5);
  return out;
}

ChaosPolicy straggler_policy(int nranks) {
  ChaosPolicy policy;
  policy.seed = 2015;
  policy.delay_probability = 0.05;
  policy.max_delay_us = 3000;
  policy.rank_slowdown.assign(std::size_t(nranks), 1.0);
  policy.rank_slowdown[0] = 6.0;  // rank 0's injected delays stretched 6x
  return policy;
}

int run_smoke(int reps) {
  // Gate 1: clustered injection at 4 ranks — the balancer must beat the
  // static partition by a loud margin on the modeled (critical-path)
  // time-to-solution, with bit-identical fields.
  const int steps = 20;
  const long long particles = 12000;
  Row clustered = run_scenario("clustered", 4, base_config(5, 4), steps,
                               Cloud::kCluster, particles, nullptr,
                               /*interval=*/5, reps);
  // Gate 2: the machinery must be ~free when there is nothing to balance.
  // 25 steps: every sample crosses the same five interval-5 epochs.
  const OverheadResult ovh = overhead_run(/*steps=*/25, std::max(reps, 40));
  std::printf(
      "overhead smoke (1 rank, N=9, 3^3 elements, %d pairs): busy static "
      "%.4fs balanced %.4fs (median pair ratio %.3f, quartiles %.3f-%.3f); "
      "wall static %.4fs balanced %.4fs (ratio %.3f)\n",
      ovh.busy.pairs, ovh.busy.reference_median, ovh.busy.candidate_median,
      ovh.busy.median, ovh.busy.q1, ovh.busy.q3, ovh.static_wall,
      ovh.balanced_wall, ovh.wall_ratio());

  int failures = 0;
  if (clustered.modeled_speedup() < 1.3) {
    std::printf("FAIL: clustered modeled speedup %.2fx < 1.3x\n",
                clustered.modeled_speedup());
    ++failures;
  }
  if (!clustered.identical) {
    std::printf("FAIL: balanced fields differ from the static reference\n");
    ++failures;
  }
  if (clustered.bal.moves <= 0) {
    std::printf("FAIL: balancer never migrated an element\n");
    ++failures;
  }
  if (ovh.busy.median > 1.03) {
    std::printf("FAIL: single-rank overhead %.1f%% > 3%%\n",
                100.0 * (ovh.busy.median - 1.0));
    ++failures;
  }
  std::printf(failures ? "FAIL\n" : "PASS\n");
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("steps", "timed steps per run (default 40)")
      .describe("reps", "repetitions, best-of (default 3); alternating "
                        "pairs for the overhead scenario (at least 7, and "
                        "at least 40 with --smoke)")
      .describe("particles", "cloud size for clustered/front (default 20000)")
      .describe("json", "output file (default BENCH_balance.json)")
      .describe("physics",
                "physics system: proxy|advection|burgers|euler "
                "(default proxy)")
      .describe("smoke", "CI gate: clustered >= 1.3x modeled speedup with "
                         "bit-identical fields; single-rank overhead < 3%");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  if (!core::physics_from_name(cli.get("physics", "proxy"), &g_physics)) {
    std::fprintf(stderr, "unknown --physics name\n");
    return 1;
  }

  const int reps = cli.get_int("reps", 3);
  if (cli.has("smoke")) return run_smoke(reps);
  const int steps = cli.get_int("steps", 40);
  const long long particles = cli.get_int("particles", 20000);
  const std::string json_path = cli.get("json", "BENCH_balance.json");

  std::vector<Row> rows;
  const int interval = 5;

  // Overhead first, while the machine is in its steady idle state — the
  // scenario sweeps below run for a minute and can shift thermal/cache
  // conditions under the short single-rank runs.
  const OverheadResult ovh =
      overhead_run(std::max(24, steps / 2), std::max(reps, 7));
  std::printf("overhead  1 rank: busy static %.4fs balanced %.4fs (ratio "
              "%.3f); wall ratio %.3f\n",
              ovh.busy.reference_median, ovh.busy.candidate_median,
              ovh.busy.median, ovh.wall_ratio());

  rows.push_back(run_scenario("clustered", 4, base_config(5, 4), steps,
                              Cloud::kCluster, particles, nullptr, interval,
                              reps));
  rows.push_back(run_scenario("front", 4, base_config(5, 4), steps,
                              Cloud::kFront, particles, nullptr, interval,
                              reps));
  {
    // Uniform workload, large enough that per-window CPU-time measurement
    // noise sits well below the rebalance threshold: the right outcome is
    // (near-)zero migration despite rank 0's 6x message delays.
    Config cfg = base_config(7, 4);
    cfg.particles_per_rank = 256;
    const ChaosPolicy policy = straggler_policy(4);
    rows.push_back(run_scenario("straggler", 4, cfg, steps, Cloud::kNone, 0,
                                &policy, interval, reps));
  }

  util::Table table({"scenario", "ranks", "modeled static (s)",
                     "modeled balanced (s)", "speedup", "imb before",
                     "imb after", "epochs", "moves", "bit-identical"});
  table.set_title("Dynamic load balancing study (modeled time-to-solution = "
                  "sum of per-step max-rank busy CPU seconds)");
  for (const Row& r : rows) {
    table.add_row({r.scenario, std::to_string(r.ranks),
                   util::Table::num(r.stat.critical_seconds, 4),
                   util::Table::num(r.bal.critical_seconds, 4),
                   util::Table::num(r.modeled_speedup(), 2),
                   util::Table::num(r.stat.imbalance(), 2),
                   util::Table::num(r.bal.imbalance(), 2),
                   std::to_string(r.bal.epochs), std::to_string(r.bal.moves),
                   r.identical ? "yes" : "NO"});
  }
  std::printf("\n%s\n", table.str().c_str());

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"balance_study\",\n"
      "  \"physics\": \"%s + two-way coupled tracers\",\n"
      "  \"metric\": \"modeled time-to-solution: sum over steps of the "
      "per-step max-over-ranks busy thread-CPU seconds (grid + particle + "
      "rebalance overhead). Ranks are threads sharing this host's cores, "
      "so wall clock cannot distinguish layouts; the per-step critical "
      "path is what a one-rank-per-node bulk-synchronous run pays. Best "
      "of %d runs of %d steps after one warm-up step.\",\n"
      "  \"bit_identity\": \"balanced fields compared bytewise against the "
      "ordered static reference (ordered_gs, balance_interval 0)\",\n"
      "  \"straggler\": \"uniform workload + chaos delay jitter stretched "
      "6x on rank 0: the CPU-clock cost model must not migrate in response "
      "to external message delays\",\n"
      "  \"overhead\": {\"ranks\": 1, \"static_busy_seconds\": %.6f, "
      "\"balanced_busy_seconds\": %.6f, \"busy_ratio\": %.4f, "
      "\"static_wall_seconds\": %.6f, \"balanced_wall_seconds\": %.6f, "
      "\"wall_ratio\": %.4f},\n"
      "  \"results\": [\n",
      core::physics_name(g_physics), reps, steps, ovh.busy.reference_median,
      ovh.busy.candidate_median, ovh.busy.median, ovh.static_wall,
      ovh.balanced_wall, ovh.wall_ratio());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"n\": %d, \"elems_per_dir\": %d, "
        "\"ranks\": %d, \"steps\": %d, \"particles\": %lld, "
        "\"static_critical_seconds\": %.6f, \"balanced_critical_seconds\": "
        "%.6f, \"modeled_speedup\": %.3f, \"static_imbalance\": %.3f, "
        "\"balanced_imbalance\": %.3f, \"static_wall_seconds\": %.6f, "
        "\"balanced_wall_seconds\": %.6f, \"epochs\": %lld, \"moves\": "
        "%lld, \"bit_identical\": %s}%s\n",
        r.scenario.c_str(), r.n, r.e, r.ranks, r.steps, r.particles,
        r.stat.critical_seconds, r.bal.critical_seconds, r.modeled_speedup(),
        r.stat.imbalance(), r.bal.imbalance(), r.stat.wall_seconds,
        r.bal.wall_seconds, r.bal.epochs, r.bal.moves,
        r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("(json written to %s)\n", json_path.c_str());

  // The study's own acceptance: the clustered scenario is the headline.
  for (const Row& r : rows) {
    if (!r.identical) {
      std::printf("FAIL: %s fields differ from the static reference\n",
                  r.scenario.c_str());
      return 1;
    }
  }
  return 0;
}

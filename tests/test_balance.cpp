// Dynamic load balancing: the repartitioner's pure-decision invariants
// (determinism, bounded moves, never emptying a rank), the v3 checkpoint
// format carrying the ownership map (with v2 backward compatibility), and
// the end-to-end guarantees — a balanced run's fields are bit-identical to
// a static run's across rank counts, overlap modes, thread counts, and
// chaos delay schedules, and a run killed mid-rebalance recovers through a
// v3 checkpoint to the same bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "balance/cost_model.hpp"
#include "balance/rebalancer.hpp"
#include "balance/scenarios.hpp"
#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "io/checkpoint.hpp"
#include "mesh/layout.hpp"
#include "resilience/recovery.hpp"

namespace {

namespace fs = std::filesystem;

using cmtbone::balance::ClusterSpec;
using cmtbone::balance::CostMode;
using cmtbone::balance::CostModel;
using cmtbone::balance::CostModelConfig;
using cmtbone::balance::clustered_cloud;
using cmtbone::balance::propose_owner;
using cmtbone::balance::RebalanceConfig;
using cmtbone::balance::RebalancePlan;
using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::mesh::BoxSpec;
using cmtbone::mesh::ElementLayout;

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, ParticleCountSurrogateIsDeterministic) {
  CostModelConfig config;
  config.mode = CostMode::kParticleCount;
  config.particle_weight = 4.0;
  CostModel model(config);
  const std::vector<int> counts = {0, 2, 7};
  const std::vector<double> cost = model.element_costs(counts);
  ASSERT_EQ(cost.size(), 3u);
  EXPECT_DOUBLE_EQ(cost[0], 1.0);
  EXPECT_DOUBLE_EQ(cost[1], 1.0 + 4.0 * 2);
  EXPECT_DOUBLE_EQ(cost[2], 1.0 + 4.0 * 7);
}

TEST(CostModel, MeasuredFallsBackToSurrogateUntilCalibrated) {
  CostModel model;  // kMeasured
  EXPECT_FALSE(model.calibrated());
  const std::vector<int> counts = {1, 3};
  // Uncalibrated: the deterministic surrogate, so the first epoch balances.
  const std::vector<double> fallback = model.element_costs(counts);
  EXPECT_GT(fallback[1], fallback[0]);

  cmtbone::prof::BalanceStats window;
  window.steps = 1;
  window.grid_seconds = 0.10;
  window.particle_seconds = 0.05;
  model.observe(window, /*nel=*/2, /*particles=*/4);
  EXPECT_TRUE(model.calibrated());
  EXPECT_GT(model.grid_unit(), 0.0);
  EXPECT_GE(model.particle_unit(), 0.0);
  const std::vector<double> measured = model.element_costs(counts);
  EXPECT_GT(measured[1], measured[0]);  // particles still cost extra
}

// ---------------------------------------------------------------------------
// Repartitioner decision invariants (pure, no comm)
// ---------------------------------------------------------------------------

BoxSpec row_spec(int ex, int px) {
  BoxSpec spec;
  spec.n = 5;
  spec.ex = ex;
  spec.ey = 1;
  spec.ez = 1;
  spec.px = px;
  spec.py = 1;
  spec.pz = 1;
  return spec;
}

TEST(ProposeOwner, BalancedLoadIsLeftAlone) {
  const BoxSpec spec = row_spec(8, 2);
  const ElementLayout layout = ElementLayout::block(spec, 0);
  const std::vector<double> cost(8, 1.0);
  const RebalancePlan plan = propose_owner(layout, cost, RebalanceConfig{});
  EXPECT_EQ(plan.moves, 0);
  EXPECT_EQ(plan.owner, layout.owner());
  EXPECT_DOUBLE_EQ(plan.imbalance_before, 1.0);
}

TEST(ProposeOwner, SkewImprovesAndRespectsMoveBound) {
  const BoxSpec spec = row_spec(8, 2);
  const ElementLayout layout = ElementLayout::block(spec, 0);
  // Rank 0 (gids 0..3) is ~4x as loaded as rank 1.
  std::vector<double> cost = {4, 4, 4, 4, 1, 1, 1, 1};
  RebalanceConfig config;
  config.max_moves = 1;
  RebalancePlan plan = propose_owner(layout, cost, config);
  EXPECT_EQ(plan.moves, 1);
  EXPECT_LT(plan.imbalance_after, plan.imbalance_before);

  config.max_moves = 8;
  plan = propose_owner(layout, cost, config);
  EXPECT_GE(plan.moves, 1);
  EXPECT_LE(plan.moves, config.max_moves);
  EXPECT_LT(plan.imbalance_after, plan.imbalance_before);
}

TEST(ProposeOwner, IdenticalInputsGiveIdenticalPlans) {
  const BoxSpec spec = row_spec(12, 3);
  const ElementLayout layout = ElementLayout::block(spec, 1);
  std::vector<double> cost(12);
  for (int g = 0; g < 12; ++g) cost[g] = 1.0 + (g % 5) * 2.5;
  const RebalancePlan a = propose_owner(layout, cost, RebalanceConfig{});
  const RebalancePlan b = propose_owner(layout, cost, RebalanceConfig{});
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.moves, b.moves);
}

TEST(ProposeOwner, NeverEmptiesARank) {
  // Rank 0 owns a single, enormously expensive element; greedy refinement
  // must not hand it away and leave the rank with nothing.
  const BoxSpec spec = row_spec(4, 2);
  ElementLayout layout(spec, 0, {0, 1, 1, 1});
  std::vector<double> cost = {100, 1, 1, 1};
  RebalanceConfig config;
  config.max_moves = 16;
  const RebalancePlan plan = propose_owner(layout, cost, config);
  for (int r = 0; r < 2; ++r) {
    int owned = 0;
    for (int o : plan.owner) owned += (o == r);
    EXPECT_GE(owned, 1) << "rank " << r << " was emptied";
  }
}

TEST(ProposeOwner, ThresholdDeadbandSuppressesSmallImbalance) {
  const BoxSpec spec = row_spec(8, 2);
  const ElementLayout layout = ElementLayout::block(spec, 0);
  // 2% imbalance, under the 5% threshold: leave the layout alone.
  std::vector<double> cost = {1.02, 1.02, 1.02, 1.02, 1, 1, 1, 1};
  RebalanceConfig config;
  config.threshold = 1.05;
  const RebalancePlan plan = propose_owner(layout, cost, config);
  EXPECT_EQ(plan.moves, 0);
}

// ---------------------------------------------------------------------------
// Checkpoint v3 format: ownership map roundtrip
// ---------------------------------------------------------------------------

TEST(CheckpointV3, OwnerMapRoundtripsAndV2StaysV2) {
  namespace io = cmtbone::io;
  io::CheckpointHeader header;
  header.n = 2;
  header.nel = 2;
  header.nfields = 2;
  header.steps = 7;
  header.time = 0.125;
  header.rank = 0;
  const std::size_t points = 2 * 8;  // nel * n^3
  std::vector<double> f0(points), f1(points);
  for (std::size_t i = 0; i < points; ++i) {
    f0[i] = 0.5 + double(i);
    f1[i] = -1.25 * double(i);
  }
  const std::vector<const double*> fields = {f0.data(), f1.data()};
  const std::vector<std::int32_t> owner = {0, 1, 1, 0};

  // The owner map prefixes the field payload.
  const std::vector<std::byte> v3 = io::serialize_checkpoint(
      header, std::span<const double* const>(fields), points,
      std::span<const std::int32_t>(owner));
  std::vector<std::vector<double>> got;
  std::vector<std::int32_t> got_owner;
  const io::CheckpointHeader h3 =
      io::parse_checkpoint(v3, "v3", &got, &got_owner);
  EXPECT_EQ(h3.version, 3u);
  EXPECT_EQ(h3.total_elements, 4);
  EXPECT_EQ(got_owner, owner);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(0, std::memcmp(got[0].data(), f0.data(), points * 8));
  EXPECT_EQ(0, std::memcmp(got[1].data(), f1.data(), points * 8));
}

// ---------------------------------------------------------------------------
// End-to-end determinism matrix
// ---------------------------------------------------------------------------

// kParticleCount mode so rebalance *decisions* (not just field results) are
// reproducible run to run; the clustered cloud concentrates particle cost
// on few ranks so epochs actually move elements.
Config matrix_config(bool balanced) {
  Config cfg;
  cfg.n = 5;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.fixed_dt = 1e-3;
  cfg.particles_per_rank = 10;  // replaced by the adopted cluster
  cfg.particle_coupling = 0.01;
  cfg.ordered_gs = true;  // layout-invariant reduction order for both modes
  if (balanced) {
    cfg.balance_interval = 2;
    cfg.balance_max_moves = 16;
    cfg.balance_cost_mode = CostMode::kParticleCount;
  }
  return cfg;
}

struct MatrixRun {
  std::vector<std::vector<double>> fields;  // dense global-by-gid
  long long moves = 0;
};

MatrixRun run_matrix(int nranks, const Config& cfg, int steps,
                     const ChaosPolicy* policy) {
  MatrixRun result;
  cmtbone::comm::RunOptions options;
  ChaosEngine engine(policy ? *policy : ChaosPolicy{}, nranks);
  if (policy) options.chaos = &engine;
  cmtbone::comm::run(
      nranks,
      [&](Comm& world) {
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        ClusterSpec cluster;
        cluster.count = 3000;
        driver.tracker()->adopt_global(clustered_cloud(cluster));
        driver.run(steps);
        std::vector<std::vector<double>> fields;
        for (int f = 0; f < driver.nfields(); ++f) {
          fields.push_back(driver.gather_global_field(f));
        }
        if (world.rank() == 0) {
          result.fields = std::move(fields);
          result.moves = driver.rebalance_moves();
        }
      },
      options);
  return result;
}

void expect_bit_identical(const MatrixRun& got, const MatrixRun& want,
                          const std::string& label) {
  ASSERT_EQ(got.fields.size(), want.fields.size()) << label;
  for (std::size_t f = 0; f < want.fields.size(); ++f) {
    ASSERT_EQ(got.fields[f].size(), want.fields[f].size()) << label;
    EXPECT_EQ(0, std::memcmp(got.fields[f].data(), want.fields[f].data(),
                             want.fields[f].size() * sizeof(double)))
        << label << ": field " << f << " differs bitwise";
  }
}

TEST(BalanceDeterminism, MatchesStaticAcrossRanksOverlapAndThreads) {
  const int steps = 6;
  const MatrixRun reference =
      run_matrix(1, matrix_config(/*balanced=*/false), steps, nullptr);
  ASSERT_FALSE(reference.fields.empty());

  bool any_moves = false;
  for (int ranks : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      for (int threads : {1, 2}) {
        Config cfg = matrix_config(/*balanced=*/true);
        cfg.overlap = overlap;
        cfg.threads_per_rank = threads;
        const MatrixRun got = run_matrix(ranks, cfg, steps, nullptr);
        const std::string label = "ranks=" + std::to_string(ranks) +
                                  " overlap=" + std::to_string(overlap) +
                                  " threads=" + std::to_string(threads);
        expect_bit_identical(got, reference, label);
        if (ranks > 1) any_moves = any_moves || got.moves > 0;
      }
    }
  }
  // The matrix must actually exercise migration, not vacuously pass.
  EXPECT_TRUE(any_moves) << "no multi-rank cell migrated any element";
}

TEST(BalanceDeterminism, ChaosDelayScheduleDoesNotChangeBits) {
  const int steps = 6;
  const MatrixRun reference =
      run_matrix(1, matrix_config(/*balanced=*/false), steps, nullptr);
  for (std::uint64_t seed : {11u, 29u}) {
    ChaosPolicy policy;
    policy.seed = seed;
    policy.delay_probability = 0.05;
    policy.max_delay_us = 2000;
    const MatrixRun got =
        run_matrix(4, matrix_config(/*balanced=*/true), steps, &policy);
    expect_bit_identical(got, reference,
                         "chaos seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Rebalanced checkpoint restore: a fresh driver adopts the stored layout
// ---------------------------------------------------------------------------

TEST(BalanceCheckpoint, RestoreAdoptsRebalancedLayout) {
  const int nranks = 2;
  Config cfg = matrix_config(/*balanced=*/true);
  cfg.balance_threshold = 1.0;  // force churn so the layout is non-block
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    ClusterSpec cluster;
    cluster.count = 3000;
    driver.tracker()->adopt_global(clustered_cloud(cluster));
    driver.run(4);
    ASSERT_GT(driver.rebalance_moves(), 0);

    const std::vector<std::byte> bytes = driver.serialize_checkpoint(3);
    std::vector<std::int32_t> owner;
    const cmtbone::io::CheckpointHeader header =
        cmtbone::io::parse_checkpoint(bytes, "mem", nullptr, &owner);
    EXPECT_EQ(header.version, 3u);
    ASSERT_EQ(owner.size(), std::size_t(driver.element_layout()
                                            .total_elements()));

    // A fresh driver starts on the block layout; restoring must migrate it
    // onto the stored ownership and reproduce the saved state bit for bit.
    Driver fresh(world, cfg);
    fresh.initialize(fresh.default_ic());
    fresh.restore_checkpoint(bytes, "mem");
    EXPECT_EQ(fresh.element_layout().owner(), driver.element_layout().owner());
    EXPECT_EQ(fresh.steps_taken(), driver.steps_taken());
    for (int f = 0; f < driver.nfields(); ++f) {
      const std::vector<double> a = driver.gather_global_field(f);
      const std::vector<double> b = fresh.gather_global_field(f);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0,
                std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
    }
  });
}

// ---------------------------------------------------------------------------
// Kill during rebalancing: recovery through a v3 checkpoint
// ---------------------------------------------------------------------------

TEST(BalanceRecovery, KillDuringRebalancedRunRecoversBitIdentical) {
  const int nranks = 4;
  const int steps = 10;

  // Particle coupling stays 0 here: particle state is not checkpointed, so
  // only a coupling-free run can promise bit-identical recovery. Particles
  // still drive the (deterministic) cost model, and threshold 1.0 forces
  // migration every epoch, so the kill lands on a genuinely rebalanced run.
  Config cfg;
  cfg.n = 5;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.fixed_dt = 1e-3;
  cfg.particles_per_rank = 32;
  cfg.particle_coupling = 0.0;
  cfg.ordered_gs = true;
  cfg.balance_interval = 2;
  cfg.balance_threshold = 1.0;
  cfg.balance_max_moves = 4;
  cfg.balance_cost_mode = CostMode::kParticleCount;

  // Static reference: same physics, no balancing.
  Config static_cfg = cfg;
  static_cfg.balance_interval = 0;

  auto gather_all = [](Driver& d) {
    std::vector<std::vector<double>> fields;
    for (int f = 0; f < d.nfields(); ++f) {
      fields.push_back(d.gather_global_field(f));
    }
    return fields;
  };

  std::vector<std::vector<double>> reference;
  long long baseline_moves = 0;
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver d(world, static_cfg);
    d.initialize(d.default_ic());
    d.run(steps);
    auto fields = gather_all(d);
    if (world.rank() == 0) reference = std::move(fields);
  });
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver d(world, cfg);
    d.initialize(d.default_ic());
    d.run(steps);
    if (world.rank() == 0) baseline_moves = d.rebalance_moves();
  });
  ASSERT_GT(baseline_moves, 0) << "workload never triggered migration";

  const fs::path dir =
      fs::temp_directory_path() / "cmtbone_balance_recovery_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Kill rank 1 at step 7: checkpoints land at steps 3 and 6, rebalance
  // epochs at 2, 4, 6 — the restored epoch carries a migrated (non-block)
  // ownership map, exercising the v3 restore path under recovery.
  ChaosPolicy policy;
  policy.seed = 5;
  policy.kill_rank = 1;
  policy.kill_step = 7;
  ChaosEngine engine(policy, nranks);

  cmtbone::resilience::RecoveryOptions options;
  options.checkpoint.directory = dir.string();
  options.checkpoint.interval = 3;
  options.chaos = &engine;
  std::vector<std::vector<double>> recovered;
  std::mutex mutex;
  options.on_final = [&](Driver& d, Comm& world) {
    auto fields = gather_all(d);  // collective: every rank participates
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      recovered = std::move(fields);
    }
  };
  cmtbone::resilience::RecoveryPolicy rpolicy;
  rpolicy.max_retries = 3;
  rpolicy.backoff_initial_ms = 0.1;

  const cmtbone::resilience::RecoveryReport report =
      cmtbone::resilience::run_with_recovery(nranks, cfg, steps, rpolicy,
                                             options);
  EXPECT_TRUE(report.completed);
  EXPECT_GE(report.failures, 1);
  EXPECT_GE(report.attempts, 2);
  EXPECT_GE(report.stats.checkpoints, 1);
  EXPECT_GE(report.last_restored_epoch, 0);

  ASSERT_EQ(recovered.size(), reference.size());
  for (std::size_t f = 0; f < reference.size(); ++f) {
    ASSERT_EQ(recovered[f].size(), reference[f].size());
    EXPECT_EQ(0, std::memcmp(recovered[f].data(), reference[f].data(),
                             reference[f].size() * sizeof(double)))
        << "field " << f << " differs bitwise after recovery";
  }
  fs::remove_all(dir);
}

}  // namespace

// Lagrangian particle tracking: interpolation accuracy, migration
// correctness, conservation of the particle population, driver coupling.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>
#include <set>

#include "util/rng.hpp"

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "particles/tracker.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::mesh::BoxSpec;
using cmtbone::mesh::Partition;
using cmtbone::particles::Particle;
using cmtbone::particles::Tracker;

BoxSpec small_spec(int px, int py, int pz, int n = 4) {
  BoxSpec s;
  s.n = n;
  s.ex = 2 * px;
  s.ey = 2 * py;
  s.ez = 2 * pz;
  s.px = px;
  s.py = py;
  s.pz = pz;
  return s;
}

TEST(Tracker, SeedsInsideOwnBlockWithUniqueIds) {
  BoxSpec spec = small_spec(2, 2, 1);
  std::set<long long> all_ids;
  std::mutex mu;
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    tracker.seed_random(25, 7);
    EXPECT_EQ(tracker.local_count(), 25u);
    EXPECT_EQ(tracker.total_count(), 25 * world.size());
    std::lock_guard<std::mutex> lock(mu);
    for (const Particle& p : tracker.particles()) {
      EXPECT_TRUE(tracker.owns(p.x, p.y, p.z));
      EXPECT_TRUE(all_ids.insert(p.id).second) << "duplicate id " << p.id;
    }
  });
  EXPECT_EQ(all_ids.size(), 25u * spec.nranks());
}

TEST(Tracker, UniformAdvectionMatchesAnalyticTranslate) {
  BoxSpec spec = small_spec(2, 1, 1);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    tracker.seed_random(10, 3);
    // Remember initial positions by id.
    std::map<long long, std::array<double, 3>> start;
    for (const Particle& p : tracker.particles()) {
      start[p.id] = {p.x, p.y, p.z};
    }
    auto all_start = world.allgatherv(
        std::span<const Particle>(tracker.particles()), nullptr);
    std::map<long long, std::array<double, 3>> global_start;
    for (const Particle& p : all_start) global_start[p.id] = {p.x, p.y, p.z};

    const std::array<double, 3> v = {0.31, -0.17, 0.05};
    const double dt = 0.05;
    const int steps = 12;
    for (int s = 0; s < steps; ++s) {
      tracker.advance(v, dt);
      tracker.migrate();
    }
    EXPECT_EQ(tracker.total_count(), 10 * world.size());
    auto wrap = [](double x) { return x - std::floor(x); };
    for (const Particle& p : tracker.particles()) {
      // Every particle is locally owned after migrate.
      EXPECT_TRUE(tracker.owns(p.x, p.y, p.z));
      auto s0 = global_start.at(p.id);
      EXPECT_NEAR(p.x, wrap(s0[0] + v[0] * dt * steps), 1e-12);
      EXPECT_NEAR(p.y, wrap(s0[1] + v[1] * dt * steps), 1e-12);
      EXPECT_NEAR(p.z, wrap(s0[2] + v[2] * dt * steps), 1e-12);
    }
  });
}

TEST(Tracker, MigrationShipsExactlyTheLeavers) {
  BoxSpec spec = small_spec(2, 1, 1);
  cmtbone::comm::run(2, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    // Hand-place: one particle staying, one crossing to the other rank.
    auto& ps = tracker.mutable_particles();
    ps.clear();
    double my_x = world.rank() == 0 ? 0.25 : 0.75;
    double other_x = world.rank() == 0 ? 0.75 : 0.25;
    ps.push_back({world.rank() * 10 + 1, my_x, 0.5, 0.5});
    ps.push_back({world.rank() * 10 + 2, other_x, 0.5, 0.5});
    tracker.migrate();
    EXPECT_EQ(tracker.last_migrated(), 1u);
    ASSERT_EQ(tracker.local_count(), 2u);
    std::set<long long> ids;
    for (const Particle& p : tracker.particles()) {
      ids.insert(p.id);
      EXPECT_TRUE(tracker.owns(p.x, p.y, p.z));
    }
    int other = 1 - world.rank();
    EXPECT_TRUE(ids.count(world.rank() * 10 + 1));
    EXPECT_TRUE(ids.count(other * 10 + 2));
  });
}

TEST(Tracker, InterpolationIsExactForTensorPolynomials) {
  // The spectral basis represents degree < n polynomials exactly, so
  // interpolation at arbitrary points must reproduce them to round-off.
  BoxSpec spec = small_spec(1, 1, 1, /*n=*/5);
  cmtbone::comm::run(1, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);

    auto f = [](double x, double y, double z) {
      return 1.0 + 3.0 * x - 2.0 * y * y + x * z + 0.5 * z * z * z;
    };
    // Fill a field with f at the GLL nodes.
    const int n = spec.n;
    std::vector<double> field(std::size_t(n) * n * n * part.nel());
    std::size_t idx = 0;
    for (int e = 0; e < part.nel(); ++e) {
      auto g = tracker.layout().global_coords(e);
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < n; ++i) {
            double x = (g[0] + 0.5 * (ops.rule.nodes[i] + 1.0)) / spec.ex;
            double y = (g[1] + 0.5 * (ops.rule.nodes[j] + 1.0)) / spec.ey;
            double z = (g[2] + 0.5 * (ops.rule.nodes[k] + 1.0)) / spec.ez;
            field[idx++] = f(x, y, z);
          }
        }
      }
    }
    cmtbone::util::SplitMix64 rng(11);
    for (int trial = 0; trial < 200; ++trial) {
      double x = rng.uniform(), y = rng.uniform(), z = rng.uniform();
      EXPECT_NEAR(tracker.interpolate(field.data(), x, y, z), f(x, y, z),
                  1e-11)
          << x << "," << y << "," << z;
    }
    // Node hits exercise the delta short-circuit.
    double xn = (0 + 0.5 * (ops.rule.nodes[2] + 1.0)) / spec.ex;
    EXPECT_NEAR(tracker.interpolate(field.data(), xn, 0.4, 0.6),
                f(xn, 0.4, 0.6), 1e-11);
  });
}

TEST(Tracker, InterpolatedUniformVelocityMatchesUniformAdvance) {
  BoxSpec spec = small_spec(2, 1, 1);
  cmtbone::comm::run(2, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    const std::size_t pts =
        std::size_t(spec.n) * spec.n * spec.n * part.nel();
    std::vector<double> vx(pts, 0.4), vy(pts, -0.2), vz(pts, 0.1);

    Tracker a(world, part, ops), b(world, part, ops);
    a.seed_random(8, 21);
    b.seed_random(8, 21);
    a.advance({0.4, -0.2, 0.1}, 0.03);
    b.advance_interpolated(vx.data(), vy.data(), vz.data(), 0.03);
    ASSERT_EQ(a.local_count(), b.local_count());
    for (std::size_t i = 0; i < a.local_count(); ++i) {
      EXPECT_NEAR(a.particles()[i].x, b.particles()[i].x, 1e-12);
      EXPECT_NEAR(a.particles()[i].y, b.particles()[i].y, 1e-12);
      EXPECT_NEAR(a.particles()[i].z, b.particles()[i].z, 1e-12);
    }
  });
}

// --- deposition (two-way coupling) -----------------------------------------------

TEST(Tracker, DepositConservesTotalStrength) {
  // Nodal weights are a partition of unity, so the raw nodal sum of the
  // deposited field equals the total strength put in.
  BoxSpec spec = small_spec(1, 1, 1, 4);
  cmtbone::comm::run(1, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    tracker.seed_random(37, 5);
    std::vector<double> field(
        std::size_t(spec.n) * spec.n * spec.n * part.nel(), 0.0);
    tracker.deposit_all(field.data(), 2.5);
    double total = 0.0;
    for (double v : field) total += v;
    EXPECT_NEAR(total, 37 * 2.5, 1e-9);
  });
}

TEST(Tracker, DepositAtNodeIsADelta) {
  BoxSpec spec = small_spec(1, 1, 1, 3);
  cmtbone::comm::run(1, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    const int n = spec.n;
    std::vector<double> field(std::size_t(n) * n * n * part.nel(), 0.0);
    // Exactly on the interior node (1,1,1) of element (0,0,0) — endpoint
    // nodes belong to two elements and would deposit into the neighbor.
    double x = (0 + 0.5 * (ops.rule.nodes[1] + 1.0)) / spec.ex;
    double y = (0 + 0.5 * (ops.rule.nodes[1] + 1.0)) / spec.ey;
    double z = (0 + 0.5 * (ops.rule.nodes[1] + 1.0)) / spec.ez;
    tracker.deposit(field.data(), x, y, z, 4.0);
    int e = tracker.layout().local_index(0, 0, 0);
    std::size_t idx = std::size_t(e) * n * n * n + 1 + n * (1 + std::size_t(n) * 1);
    EXPECT_NEAR(field[idx], 4.0, 1e-12);
    double total = 0.0;
    for (double v : field) total += v;
    EXPECT_NEAR(total, 4.0, 1e-12);
  });
}

TEST(Tracker, DepositInterpolateDualityForConstantField) {
  // <deposit(delta_p), 1> pairing: interpolating the constant 1 at any
  // position returns 1, the dual statement of partition-of-unity deposit.
  BoxSpec spec = small_spec(1, 1, 1, 5);
  cmtbone::comm::run(1, [&](Comm& world) {
    Partition part(spec, world.rank());
    auto ops = cmtbone::sem::Operators::build(spec.n);
    Tracker tracker(world, part, ops);
    std::vector<double> ones(
        std::size_t(spec.n) * spec.n * spec.n * part.nel(), 1.0);
    cmtbone::util::SplitMix64 rng(3);
    for (int i = 0; i < 50; ++i) {
      EXPECT_NEAR(tracker.interpolate(ones.data(), rng.uniform(),
                                      rng.uniform(), rng.uniform()),
                  1.0, 1e-11);
    }
  });
}

// --- driver coupling -----------------------------------------------------------

TEST(DriverParticles, CouplingInjectsMomentumSource) {
  // With coupling on, x-momentum grows by roughly
  // particles * strength * dt per step (RK convexity preserves the rate).
  cmtbone::comm::run(2, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    cfg.particles_per_rank = 10;
    cfg.particle_coupling = 0.5;
    cfg.use_dssum = false;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    double before = driver.integral(1);
    driver.run(4);
    double after = driver.integral(1);
    // 20 particles x 0.5 strength: nodal sources integrate against the
    // quadrature weights, so the momentum integral must strictly grow.
    EXPECT_GT(after, before);
  });
}

TEST(DriverParticles, PopulationConservedThroughManySteps) {
  cmtbone::comm::run(4, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 5e-3;
    cfg.particles_per_rank = 20;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    ASSERT_NE(driver.tracker(), nullptr);
    EXPECT_EQ(driver.tracker()->total_count(), 80);
    driver.run(8);
    EXPECT_EQ(driver.tracker()->total_count(), 80);
    for (const Particle& p : driver.tracker()->particles()) {
      EXPECT_TRUE(driver.tracker()->owns(p.x, p.y, p.z));
    }
  });
}

TEST(DriverParticles, EulerModeUsesInterpolatedFlow) {
  cmtbone::comm::run(2, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.physics = cmtbone::core::Physics::kEuler;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = false;
    cfg.cfl = 0.2;
    cfg.particles_per_rank = 10;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(4);
    EXPECT_EQ(driver.tracker()->total_count(), 20);
  });
}

TEST(DriverParticles, OffByDefault) {
  cmtbone::comm::run(1, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cmtbone::core::Driver driver(world, cfg);
    EXPECT_EQ(driver.tracker(), nullptr);
  });
}

}  // namespace

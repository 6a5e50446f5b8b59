// Hyperbolic-systems scenario pack: the HyperbolicSystem interface (Burgers
// and Euler/Sod next to the historical proxy and advection modes), analytic
// convergence rates, the Sod shock tube against the exact Riemann solution,
// stretched-mesh geometry (per-element metric dt, accuracy, determinism),
// non-physical-state detection (SolverDiverged raised collectively, terminal
// under recovery), the interpolated particle carrier, and v3 checkpoint
// compatibility for proxy runs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/system.hpp"
#include "io/checkpoint.hpp"
#include "mesh/geometry.hpp"
#include "resilience/recovery.hpp"

namespace {

namespace fs = std::filesystem;

// Per-test scratch directory, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("cmtbone_sys_" + tag + "_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  fs::path path;
};

using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::EulerCase;
using cmtbone::core::Physics;
using cmtbone::core::SolverDiverged;
using cmtbone::core::sod_exact;
using cmtbone::core::SodSample;

// ---------------------------------------------------------------------------
// Naming and the exact Riemann solver (pure, no comm)
// ---------------------------------------------------------------------------

TEST(SystemNames, PhysicsNamesRoundTrip) {
  for (Physics p : {Physics::kProxyAdvection, Physics::kAdvection,
                    Physics::kBurgers, Physics::kEuler}) {
    Physics back{};
    ASSERT_TRUE(cmtbone::core::physics_from_name(physics_name(p), &back));
    EXPECT_EQ(back, p);
  }
  Physics out{};
  EXPECT_FALSE(cmtbone::core::physics_from_name("magnetohydro", &out));
  EXPECT_STREQ(cmtbone::core::euler_case_name(EulerCase::kSmoothWave),
               "smooth-wave");
  EXPECT_STREQ(cmtbone::core::euler_case_name(EulerCase::kSod), "sod");
}

TEST(SodExact, ReproducesTheKnownStarState) {
  // Toro's reference solution for the Sod states at gamma = 1.4:
  // p* = 0.30313, u* = 0.92745, rho*_L = 0.42632, rho*_R = 0.26557.
  const double gamma = 1.4;
  const SodSample left_of_contact = sod_exact(0.92745 - 1e-3, gamma);
  EXPECT_NEAR(left_of_contact.p, 0.30313, 1e-4);
  EXPECT_NEAR(left_of_contact.u, 0.92745, 1e-4);
  EXPECT_NEAR(left_of_contact.rho, 0.42632, 1e-4);
  const SodSample right_of_contact = sod_exact(0.92745 + 1e-3, gamma);
  EXPECT_NEAR(right_of_contact.rho, 0.26557, 1e-4);
  EXPECT_NEAR(right_of_contact.p, 0.30313, 1e-4);
  // Undisturbed states outside the wave fan.
  const SodSample far_left = sod_exact(-2.0, gamma);
  EXPECT_DOUBLE_EQ(far_left.rho, 1.0);
  EXPECT_DOUBLE_EQ(far_left.p, 1.0);
  const SodSample far_right = sod_exact(2.0, gamma);
  EXPECT_DOUBLE_EQ(far_right.rho, 0.125);
  EXPECT_DOUBLE_EQ(far_right.p, 0.1);
  // Inside the rarefaction fan the profile is smooth and decreasing.
  const SodSample fan_a = sod_exact(-0.8, gamma);
  const SodSample fan_b = sod_exact(-0.3, gamma);
  EXPECT_GT(fan_a.rho, fan_b.rho);
  EXPECT_GT(fan_b.rho, left_of_contact.rho);
}

// ---------------------------------------------------------------------------
// Convergence rates against analytic solutions
// ---------------------------------------------------------------------------

// Observed order from two element resolutions (2x refinement).
double observed_order(double err_coarse, double err_fine) {
  return std::log2(err_coarse / err_fine);
}

TEST(Convergence, AdvectionObservedOrderTracksN) {
  // DG-SEM with degree n-1 elements converges at order ~n in the element
  // size; the observed order over a 2x refinement must come close.
  cmtbone::comm::run(1, [](Comm& world) {
    for (int n : {3, 4}) {
      double errs[2];
      int idx = 0;
      for (int e : {4, 8}) {
        Config cfg;
        cfg.physics = Physics::kAdvection;
        cfg.n = n;
        cfg.ex = cfg.ey = cfg.ez = e;
        cfg.use_dssum = false;  // pure DG
        cfg.fixed_dt = 5e-4;    // time error well below spatial error
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        driver.run(200);
        errs[idx++] =
            driver.linf_error(driver.system().exact_solution(driver.time()));
      }
      const double order = observed_order(errs[0], errs[1]);
      EXPECT_GT(order, n - 1.0) << "n=" << n << " errs " << errs[0] << " "
                                << errs[1];
    }
  });
}

TEST(Convergence, BurgersPreShockObservedOrder) {
  // Smooth Burgers before characteristics cross: the Newton-on-
  // characteristics exact solution is available, and the nonlinear DG
  // solution must converge at ~order n toward it.
  cmtbone::comm::run(1, [](Comm& world) {
    double errs[2];
    int idx = 0;
    for (int e : {4, 8}) {
      Config cfg;
      cfg.physics = Physics::kBurgers;
      cfg.velocity = {1.0, 0.0, 0.0};  // 1-D dynamics along x
      cfg.n = 4;
      cfg.ex = e;
      cfg.ey = cfg.ez = 1;
      cfg.use_dssum = false;
      cfg.fixed_dt = 1e-3;
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      ASSERT_TRUE(driver.system().has_exact_solution());
      driver.run(200);  // t = 0.2, well before the shock
      ASSERT_LT(driver.time(), driver.system().exact_solution_horizon());
      errs[idx++] =
          driver.l1_error(0, driver.system().exact_solution(driver.time()));
    }
    const double order = observed_order(errs[0], errs[1]);
    EXPECT_GT(order, 3.0) << "errs " << errs[0] << " " << errs[1];
  });
}

TEST(BurgersExact, SatisfiesTheCharacteristicEquation) {
  // u(x, t) must solve u = g(x - a u t) to solver precision pre-shock.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kBurgers;
    cfg.velocity = {1.0, 0.0, 0.0};
    cfg.n = 3;
    cfg.ex = cfg.ey = cfg.ez = 1;
    Driver driver(world, cfg);
    const auto& sys = driver.system();
    // Shock-formation time for g = 0.5 + 0.25 sin(2 pi x): 2 / pi.
    EXPECT_NEAR(sys.exact_solution_horizon(), 2.0 / M_PI, 1e-12);
    const double t = 0.3;
    auto exact = sys.exact_solution(t);
    auto g = [](double x) { return 0.5 + 0.25 * std::sin(2.0 * M_PI * x); };
    for (double x : {0.0, 0.13, 0.4, 0.55, 0.78, 0.99}) {
      const double u = exact(x, 0.0, 0.0, 0);
      EXPECT_NEAR(u, g(x - u * t), 1e-12) << "x=" << x;
    }
  });
}

TEST(EulerSmoothWave, MatchesTheEntropyWaveTranslate) {
  // The default Euler case is an entropy wave: density rides the constant
  // carrier velocity, velocity and pressure stay uniform, so the exact
  // solution is the translated initial condition.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kEuler;
    cfg.n = 6;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = false;
    cfg.fixed_dt = 1e-3;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    ASSERT_TRUE(driver.system().has_exact_solution());
    driver.run(50);
    const double err =
        driver.linf_error(driver.system().exact_solution(driver.time()));
    EXPECT_LT(err, 5e-3);
  });
}

TEST(Sod, ShockTubeDensityMatchesExactRiemann) {
  // 1-D shock tube on a high-aspect non-periodic box: rarefaction, contact
  // and shock must land where the exact Riemann solution puts them. L1 is
  // the right norm across the discontinuities.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kEuler;
    cfg.euler_case = EulerCase::kSod;
    cfg.periodic = false;
    cfg.n = 2;  // lowest order: enough Rusanov dissipation at the shock
    cfg.ex = 200;
    cfg.ey = cfg.ez = 1;
    cfg.cfl = 0.25;
    // Pure DG: dssum face-averaging would cancel the Rusanov jump
    // dissipation exactly where the shock needs it.
    cfg.use_dssum = false;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    while (driver.time() < 0.15) driver.step();
    const double t = driver.time();
    auto exact = driver.system().exact_solution(t);
    const double err_rho = driver.l1_error(0, exact);
    EXPECT_LT(err_rho, 0.01) << "L1 density error at t=" << t;
    // Spot-check the plateau between contact and shock.
    bool sampled = false;
    const auto rho = driver.field(0);
    const int n = cfg.n;
    for (int e = 0; e < driver.element_layout().nel() && !sampled; ++e) {
      auto c = driver.node_coords(e, n / 2, 0, 0);
      const double xi = (c[0] - 0.5) / t;
      if (xi > 1.0 && xi < 1.5) {
        const std::size_t idx =
            std::size_t(e) * n * n * n + n / 2;  // (i=n/2, j=0, k=0)
        EXPECT_NEAR(rho[idx], 0.26557, 0.02);
        sampled = true;
      }
    }
    EXPECT_TRUE(sampled);
  });
}

// ---------------------------------------------------------------------------
// Stretched meshes: metric dt, accuracy, and determinism
// ---------------------------------------------------------------------------

TEST(StretchedMesh, ComputeDtUsesTheThinnestElement) {
  // The CFL bound must follow the per-element metric spacing: under a
  // geometric map the thinnest layer, not the mean L/ex slab, limits dt.
  // (With the historical uniform-h formula dt would overshoot by ~r^(ex-1).)
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kAdvection;
    cfg.velocity = {1.0, 0.0, 0.0};
    cfg.n = 4;
    cfg.ex = 4;
    cfg.ey = cfg.ez = 1;
    cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 2.0, 1.0};
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    const std::vector<double> widths =
        cmtbone::mesh::axis_widths(cfg.mesh_map[0], 4);
    const double w_min = *std::min_element(widths.begin(), widths.end());
    const double w_uniform = 1.0 / 4;
    ASSERT_LT(w_min, 0.5 * w_uniform);  // the map actually stretches
    const double dt = driver.compute_dt();
    // dr_min for the element's GLL rule:
    const auto& r = driver.operators().rule.nodes;
    const double expect = cfg.cfl * 0.5 * (r[1] - r[0]) * w_min / 1.0;
    EXPECT_DOUBLE_EQ(dt, expect);
    // The uniform-slab formula would allow a dt ~3.75x larger — the bug this
    // pins down.
    EXPECT_LT(dt, cfg.cfl * 0.5 * (r[1] - r[0]) * w_uniform / 1.0);
  });
}

TEST(StretchedMesh, AdvectionStaysAccurate) {
  // Geometric factors on a stretched, scaled box: the translate solution
  // must still be reproduced to discretization accuracy.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kAdvection;
    cfg.n = 6;
    cfg.ex = cfg.ey = cfg.ez = 4;
    cfg.use_dssum = false;
    cfg.fixed_dt = 5e-4;
    cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 1.3, 1.0};
    cfg.mesh_map[1] = {cmtbone::mesh::AxisMapKind::kTanh, 1.5, 1.0};
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(100);
    const double err =
        driver.linf_error(driver.system().exact_solution(driver.time()));
    EXPECT_LT(err, 5e-3);
  });
}

// ---------------------------------------------------------------------------
// Determinism matrices for the new systems
// ---------------------------------------------------------------------------

Config matrix_config(Physics physics) {
  Config cfg;
  cfg.physics = physics;
  cfg.n = 4;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.fixed_dt = 1e-3;
  cfg.ordered_gs = true;  // rank-count-invariant dssum fold order
  return cfg;
}

std::vector<std::vector<double>> run_global_fields(int nranks,
                                                   const Config& cfg,
                                                   int steps,
                                                   const ChaosPolicy* policy) {
  std::vector<std::vector<double>> result;
  cmtbone::comm::RunOptions options;
  ChaosEngine engine(policy ? *policy : ChaosPolicy{}, nranks);
  if (policy) options.chaos = &engine;
  cmtbone::comm::run(
      nranks,
      [&](Comm& world) {
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        driver.run(steps);
        std::vector<std::vector<double>> fields;
        for (int f = 0; f < driver.nfields(); ++f) {
          fields.push_back(driver.gather_global_field(f));
        }
        if (world.rank() == 0) result = std::move(fields);
      },
      options);
  return result;
}

void expect_fields_bit_identical(const std::vector<std::vector<double>>& got,
                                 const std::vector<std::vector<double>>& want,
                                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < want.size(); ++f) {
    ASSERT_EQ(got[f].size(), want[f].size()) << label;
    EXPECT_EQ(0, std::memcmp(got[f].data(), want[f].data(),
                             want[f].size() * sizeof(double)))
        << label << ": field " << f << " differs bitwise";
  }
}

void run_determinism_matrix(const Config& base, const std::string& tag) {
  const int steps = 5;
  const auto reference = run_global_fields(1, base, steps, nullptr);
  ASSERT_FALSE(reference.empty());
  for (int ranks : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      for (int threads : {1, 2}) {
        Config cfg = base;
        cfg.overlap = overlap;
        cfg.threads_per_rank = threads;
        const auto got = run_global_fields(ranks, cfg, steps, nullptr);
        expect_fields_bit_identical(
            got, reference,
            tag + " ranks=" + std::to_string(ranks) +
                " overlap=" + std::to_string(overlap) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(SystemDeterminism, BurgersMatrixMatchesSerialReference) {
  run_determinism_matrix(matrix_config(Physics::kBurgers), "burgers");
}

TEST(SystemDeterminism, EulerMatrixMatchesSerialReference) {
  run_determinism_matrix(matrix_config(Physics::kEuler), "euler");
}

TEST(SystemDeterminism, StretchedMeshMatrixMatchesSerialReference) {
  Config cfg = matrix_config(Physics::kAdvection);
  cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 1.3, 1.0};
  cfg.mesh_map[1] = {cmtbone::mesh::AxisMapKind::kTanh, 1.5, 1.0};
  run_determinism_matrix(cfg, "stretched");
}

TEST(SystemDeterminism, ChaosDelaysDoNotChangeEulerBits) {
  const int steps = 5;
  const Config cfg = matrix_config(Physics::kEuler);
  const auto reference = run_global_fields(1, cfg, steps, nullptr);
  ChaosPolicy policy;
  policy.seed = 17;
  policy.delay_probability = 0.05;
  policy.max_delay_us = 2000;
  Config chaotic = cfg;
  chaotic.overlap = true;
  const auto got = run_global_fields(4, chaotic, steps, &policy);
  expect_fields_bit_identical(got, reference, "euler chaos seed 17");
}

// ---------------------------------------------------------------------------
// Non-physical states: SolverDiverged semantics
// ---------------------------------------------------------------------------

TEST(SolverDivergence, NegativeDensityRaisesOnEveryRankTogether) {
  // Only rank 1's subdomain holds the bad state; the dt-reduction sentinel
  // must make BOTH ranks throw SolverDiverged at the same boundary.
  for (double fixed_dt : {0.0, 1e-3}) {  // CFL sentinel path and flag path
    std::mutex mu;
    std::vector<std::string> thrown(2);
    cmtbone::comm::run(2, [&](Comm& world) {
      Config cfg;
      cfg.physics = Physics::kEuler;
      cfg.n = 3;
      cfg.ex = cfg.ey = cfg.ez = 2;
      cfg.fixed_dt = fixed_dt;
      Driver driver(world, cfg);
      driver.initialize([](double x, double, double, int f) {
        if (f == 0) return x < 0.5 ? 1.0 : -1.0;  // bad density on the right
        if (f == 4) return 2.5;
        return 0.0;
      });
      try {
        driver.step();
      } catch (const SolverDiverged& e) {
        std::lock_guard<std::mutex> lock(mu);
        thrown[std::size_t(world.rank())] = e.what();
      }
    });
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_NE(thrown[std::size_t(rank)].find("solver diverged at step 0"),
                std::string::npos)
          << "fixed_dt=" << fixed_dt << " rank " << rank << ": got '"
          << thrown[std::size_t(rank)] << "'";
    }
  }
}

TEST(SolverDivergence, BurgersBlowupIsDetectedMidRun) {
  // A wildly unstable dt drives Burgers to non-finite values within a few
  // steps; the admissibility scan must stop the run with a structured error
  // instead of letting NaNs advance forever.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kBurgers;
    cfg.n = 4;
    cfg.ex = 8;
    cfg.ey = cfg.ez = 1;
    cfg.velocity = {1.0, 0.0, 0.0};
    cfg.fixed_dt = 50.0;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    long long diverged_at = -1;
    try {
      driver.run(200);
    } catch (const SolverDiverged& e) {
      diverged_at = e.step;
    }
    ASSERT_GE(diverged_at, 1) << "blow-up never detected";
    EXPECT_LT(diverged_at, 200);
  });
}

TEST(SolverDivergence, RecoveryTreatsItAsTerminal) {
  // Deterministic replay reproduces the same divergence, so the supervisor
  // must rethrow immediately: no retry, no backoff sleep. A retry would
  // trip the 60-second backoff and fail the wall-clock bound.
  ScratchDir dir("diverge");
  cmtbone::resilience::RecoveryPolicy rpolicy;
  rpolicy.max_retries = 5;
  rpolicy.backoff_initial_ms = 60000.0;
  cmtbone::resilience::RecoveryOptions options;
  options.checkpoint.directory = dir.path.string();
  options.checkpoint.interval = 2;
  options.initial_condition = [](double x, double, double, int f) {
    if (f == 0) return x < 0.5 ? 1.0 : -1.0;
    if (f == 4) return 2.5;
    return 0.0;
  };
  Config cfg;
  cfg.physics = Physics::kEuler;
  cfg.n = 3;
  cfg.ex = cfg.ey = cfg.ez = 2;
  cfg.fixed_dt = 1e-3;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      cmtbone::resilience::run_with_recovery(1, cfg, 6, rpolicy, options),
      SolverDiverged);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 10.0) << "supervisor appears to have retried/backed off";
}

TEST(SolverDivergence, EulerRecoversBitIdenticallyUnderChaosKill) {
  // The Euler path through checkpoint/restore: a chaos kill mid-run must
  // recover to the exact bits of the uninterrupted run.
  Config cfg = matrix_config(Physics::kEuler);
  cfg.ordered_gs = false;  // plain config; recovery replays the same layout
  const int steps = 9;
  const auto baseline = run_global_fields(1, cfg, steps, nullptr);

  ScratchDir dir("euler_chaos");
  ChaosPolicy policy;
  policy.seed = 3;
  policy.kill_rank = 0;
  policy.kill_step = 5;
  ChaosEngine engine(policy, 1);
  cmtbone::resilience::RecoveryPolicy rpolicy;
  rpolicy.backoff_initial_ms = 0.1;
  cmtbone::resilience::RecoveryOptions options;
  options.checkpoint.directory = dir.path.string();
  options.checkpoint.interval = 3;
  options.chaos = &engine;
  std::vector<std::vector<double>> recovered;
  std::mutex mu;
  options.on_final = [&](Driver& d, Comm& world) {
    std::vector<std::vector<double>> fields;
    for (int f = 0; f < d.nfields(); ++f) {
      fields.push_back(d.gather_global_field(f));
    }
    std::lock_guard<std::mutex> lock(mu);
    if (world.rank() == 0) recovered = std::move(fields);
  };
  const auto report =
      cmtbone::resilience::run_with_recovery(1, cfg, steps, rpolicy, options);
  EXPECT_TRUE(report.completed);
  EXPECT_GE(report.failures, 1);
  expect_fields_bit_identical(recovered, baseline, "euler chaos recovery");
}

// ---------------------------------------------------------------------------
// Particle carrier velocity: always the interpolated field
// ---------------------------------------------------------------------------

TEST(ParticleCarrier, EulerParticlesFollowTheLocalFlow) {
  // The flow field carries velocity 0.25 along x while config.velocity says
  // (1, 0.5, 0.25): particles must ride the interpolated flow, not the
  // config constant — the historical non-Euler fallback bug.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kEuler;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    cfg.particles_per_rank = 8;
    Driver driver(world, cfg);
    const double vx = 0.25, gamma = cfg.gamma;
    driver.initialize([vx, gamma](double, double, double, int f) {
      switch (f) {
        case 0: return 1.0;
        case 1: return vx;
        case 2:
        case 3: return 0.0;
        default: return 1.0 / (gamma - 1.0) + 0.5 * vx * vx;
      }
    });
    auto before = driver.tracker()->particles();
    driver.step();
    const double dt = cfg.fixed_dt;
    for (const auto& p : driver.tracker()->particles()) {
      for (const auto& q : before) {
        if (q.id != p.id) continue;
        const double dx = p.x - q.x;
        EXPECT_NEAR(dx, vx * dt, 1e-8) << "particle " << p.id;
        EXPECT_GT(std::abs(dx - 1.0 * dt), 1e-5)
            << "particle " << p.id << " rode config.velocity";
      }
    }
  });
}

TEST(ParticleCarrier, AdvectionParticlesUseTheInterpolatedConstantField) {
  // Linear advection's carrier is constant, so the interpolated path must
  // land on the analytic translate to interpolation precision.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kAdvection;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    cfg.particles_per_rank = 8;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    auto before = driver.tracker()->particles();
    driver.step();
    for (const auto& p : driver.tracker()->particles()) {
      for (const auto& q : before) {
        if (q.id != p.id) continue;
        EXPECT_NEAR(p.x - q.x, cfg.velocity[0] * cfg.fixed_dt, 1e-9);
        EXPECT_NEAR(p.y - q.y, cfg.velocity[1] * cfg.fixed_dt, 1e-9);
      }
    }
  });
}

TEST(ParticleCarrier, ParticlesRejectStretchedMeshes) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.particles_per_rank = 4;
    cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 1.5, 1.0};
    EXPECT_THROW(Driver(world, cfg), std::invalid_argument);
  });
}

// ---------------------------------------------------------------------------
// Checkpoint compatibility: v3 proxy files still restore
// ---------------------------------------------------------------------------

TEST(CheckpointCompat, ProxyV3FilesRestoreBitIdentically) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;  // proxy defaults, exactly the pre-pack configuration
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    Driver writer(world, cfg);
    writer.initialize(writer.default_ic());
    writer.run(3);
    const std::vector<std::byte> bytes = writer.serialize_checkpoint(7);

    const cmtbone::io::CheckpointHeader header =
        cmtbone::io::parse_checkpoint(bytes, "mem", nullptr);
    EXPECT_EQ(header.version, 3u);
    EXPECT_EQ(header.nfields, 5);

    Driver reader(world, cfg);
    reader.restore_checkpoint(bytes, "mem");
    EXPECT_EQ(reader.steps_taken(), writer.steps_taken());
    EXPECT_DOUBLE_EQ(reader.time(), writer.time());
    for (int f = 0; f < writer.nfields(); ++f) {
      auto a = writer.field(f);
      auto b = reader.field(f);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << "field " << f;
    }
  });
}

}  // namespace

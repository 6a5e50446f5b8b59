// The CMT-bone driver: DG advection correctness, conservation, Euler
// stability, proxy behavior, parallel/serial agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/flux.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "mesh/faces.hpp"
#include "mesh/geometry.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::Physics;

Config advection_config(int n, int e, double cfl = 0.25) {
  Config cfg;
  cfg.physics = Physics::kAdvection;
  cfg.n = n;
  cfg.ex = cfg.ey = cfg.ez = e;
  cfg.cfl = cfl;
  cfg.use_dssum = false;  // pure DG: keep the discontinuous solution intact
  return cfg;
}

TEST(Driver, InitializeSetsFieldsFromCallback) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg = advection_config(4, 2);
    Driver driver(world, cfg);
    driver.initialize([](double x, double y, double z, int) {
      return x + 10 * y + 100 * z;
    });
    auto u = driver.field(0);
    auto c = driver.node_coords(0, 1, 2, 3);
    // Spot-check one node.
    const int n = 4;
    std::size_t idx = 1 + n * (2 + std::size_t(n) * 3);
    EXPECT_NEAR(u[idx], c[0] + 10 * c[1] + 100 * c[2], 1e-13);
  });
}

TEST(Driver, NodeCoordsCoverUnitBox) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg = advection_config(5, 2);
    Driver driver(world, cfg);
    const auto& part = driver.partition();
    for (int e = 0; e < part.nel(); ++e) {
      for (int idx : {0, 4}) {
        auto c = driver.node_coords(e, idx, idx, idx);
        for (double x : c) {
          EXPECT_GE(x, 0.0);
          EXPECT_LE(x, 1.0);
        }
      }
    }
  });
}

TEST(Driver, AdvectionConservesIntegral) {
  // Periodic DG advection conserves the total integral to round-off.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg = advection_config(6, 2);
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    double before = driver.integral(0);
    driver.run(10);
    double after = driver.integral(0);
    EXPECT_NEAR(after, before, 1e-11 * std::abs(before));
  });
}

TEST(Driver, AdvectionMatchesAnalyticTranslate) {
  // u(x, t) = u0(x - c t): after time t the solution is a periodic shift.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg = advection_config(8, 2);
    cfg.velocity = {1.0, 0.5, 0.25};
    Driver driver(world, cfg);
    auto ic = driver.default_ic();
    driver.initialize(ic);
    driver.run(40);
    const double t = driver.time();
    auto wrap = [](double v) { return v - std::floor(v); };
    double err = driver.linf_error([&](double x, double y, double z, int f) {
      return ic(wrap(x - 1.0 * t), wrap(y - 0.5 * t), wrap(z - 0.25 * t), f);
    });
    EXPECT_LT(err, 2e-4);
  });
}

TEST(Driver, AdvectionSpectralConvergenceInN) {
  // Increasing N at fixed elements must shrink the error fast (spectral).
  cmtbone::comm::run(1, [](Comm& world) {
    std::vector<double> errs;
    for (int n : {4, 6, 8}) {
      Config cfg = advection_config(n, 2);
      cfg.fixed_dt = 2e-3;  // keep time error below the spatial error
      Driver driver(world, cfg);
      auto ic = driver.default_ic();
      driver.initialize(ic);
      driver.run(25);
      const double t = driver.time();
      auto wrap = [](double v) { return v - std::floor(v); };
      errs.push_back(
          driver.linf_error([&](double x, double y, double z, int f) {
            return ic(wrap(x - 1.0 * t), wrap(y - 0.5 * t), wrap(z - 0.25 * t),
                      f);
          }));
    }
    EXPECT_LT(errs[1], errs[0] * 0.2);
    EXPECT_LT(errs[2], errs[1] * 0.5);
  });
}

TEST(Driver, ParallelRunMatchesSerialRun) {
  // 4 ranks vs 1 rank, same global problem: identical trajectories up to
  // reduction rounding.
  Config cfg = advection_config(5, 4);
  cfg.fixed_dt = 1e-3;

  std::vector<double> serial_norm(1);
  cmtbone::comm::run(1, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(5);
    serial_norm[0] = driver.l2_norm(0);
  });
  cmtbone::comm::run(4, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(5);
    double parallel = driver.l2_norm(0);
    EXPECT_NEAR(parallel, serial_norm[0], 1e-10 * serial_norm[0]);
  });
}

TEST(Driver, ProxyModeAdvectsFiveFields) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kProxyAdvection;
    cfg.n = 5;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = true;
    Driver driver(world, cfg);
    EXPECT_EQ(driver.nfields(), 5);
    driver.initialize(driver.default_ic());
    std::vector<double> before(5);
    for (int f = 0; f < 5; ++f) before[f] = driver.integral(f);
    driver.run(3);
    for (int f = 0; f < 5; ++f) {
      double after = driver.integral(f);
      EXPECT_NEAR(after, before[f], 1e-9 * std::abs(before[f]))
          << "field " << f;
      EXPECT_TRUE(std::isfinite(driver.l2_norm(f)));
    }
  });
}

TEST(Driver, DssumKeepsFieldsFiniteAndConservative) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kProxyAdvection;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = true;
    cfg.gs_method = cmtbone::gs::Method::kCrystalRouter;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(4);
    for (int f = 0; f < 5; ++f) {
      EXPECT_TRUE(std::isfinite(driver.l2_norm(f)));
    }
  });
}

TEST(Driver, EulerUniformFlowIsSteady) {
  // A spatially uniform state is an exact steady solution of the Euler
  // equations; the discrete operator must preserve it to round-off.
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kEuler;
    cfg.n = 5;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = false;
    Driver driver(world, cfg);
    driver.initialize([](double, double, double, int f) {
      switch (f) {
        case 0: return 1.0;
        case 1: return 0.3;
        case 2: return -0.1;
        case 3: return 0.2;
        default: return 2.5;
      }
    });
    driver.run(5);
    double err = driver.linf_error([](double, double, double, int f) {
      switch (f) {
        case 0: return 1.0;
        case 1: return 0.3;
        case 2: return -0.1;
        case 3: return 0.2;
        default: return 2.5;
      }
    });
    EXPECT_LT(err, 1e-11);
  });
}

TEST(Driver, EulerSmoothFlowConservesMassMomentumEnergy) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kEuler;
    cfg.n = 6;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.cfl = 0.2;
    cfg.use_dssum = false;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    std::vector<double> before(5);
    for (int f = 0; f < 5; ++f) before[f] = driver.integral(f);
    driver.run(10);
    for (int f = 0; f < 5; ++f) {
      double after = driver.integral(f);
      double scale = std::max(1.0, std::abs(before[f]));
      EXPECT_NEAR(after, before[f], 1e-10 * scale) << "field " << f;
      EXPECT_TRUE(std::isfinite(driver.l2_norm(f)));
    }
  });
}

TEST(Driver, ComputeDtScalesWithCfl) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg = advection_config(5, 2);
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    double dt1 = driver.compute_dt();
    Config cfg2 = cfg;
    cfg2.cfl = 2 * cfg.cfl;
    Driver driver2(world, cfg2);
    driver2.initialize(driver2.default_ic());
    EXPECT_NEAR(driver2.compute_dt(), 2 * dt1, 1e-14);
    EXPECT_GT(dt1, 0.0);
  });
}

TEST(Driver, FixedDtOverridesCfl) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg = advection_config(5, 2);
    cfg.fixed_dt = 1.25e-3;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    EXPECT_DOUBLE_EQ(driver.compute_dt(), 1.25e-3);
    driver.run(4);
    EXPECT_NEAR(driver.time(), 4 * 1.25e-3, 1e-15);
  });
}

TEST(Driver, ZeroSignalSpeedWithoutFixedDtThrows) {
  // With every signal speed zero the CFL bound is +inf. The step must be
  // refused on every rank together instead of advancing by dt = inf.
  for (int ranks : {1, 2}) {
    std::mutex mu;
    std::vector<std::string> thrown(static_cast<std::size_t>(ranks));
    cmtbone::comm::run(ranks, [&](Comm& world) {
      Config cfg;  // the proxy
      cfg.n = 3;
      cfg.ex = cfg.ey = cfg.ez = 2;
      cfg.velocity = {0.0, 0.0, 0.0};
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      try {
        driver.step();
      } catch (const std::invalid_argument& e) {
        std::lock_guard<std::mutex> lock(mu);
        thrown[std::size_t(world.rank())] = e.what();
      }
      EXPECT_EQ(driver.time(), 0.0);
    });
    for (int rank = 0; rank < ranks; ++rank) {
      EXPECT_NE(thrown[std::size_t(rank)].find("Config::fixed_dt"),
                std::string::npos)
          << ranks << " ranks, rank " << rank << ": got '"
          << thrown[std::size_t(rank)] << "'";
    }
  }
}

TEST(Driver, VariantsProduceSameTrajectory) {
  // The loop-transformation variants are numerically interchangeable.
  Config base = advection_config(5, 2);
  base.fixed_dt = 1e-3;
  std::vector<double> norms;
  for (auto v : cmtbone::kernels::all_variants()) {
    cmtbone::comm::run(1, [&](Comm& world) {
      Config cfg = base;
      cfg.variant = v;
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      driver.run(5);
      norms.push_back(driver.l2_norm(0));
    });
  }
  for (std::size_t i = 1; i < norms.size(); ++i) {
    EXPECT_NEAR(norms[i], norms[0], 1e-11 * norms[0]);
  }
}

TEST(Driver, DealiasPathRuns) {
  cmtbone::comm::run(1, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kProxyAdvection;
    cfg.n = 5;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.dealias = true;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(2);
    EXPECT_TRUE(std::isfinite(driver.l2_norm(4)));
  });
}

// --- per-point operation order ----------------------------------------------------

// One forward-Euler step assembled from public pieces, in the operation
// order every RHS implementation must keep per point:
//   volume: rhs = ((0 - s_r g_r) - s_s g_s) - s_t g_t, s_axis = 2 / h_axis,
//           from single-point HyperbolicSystem::flux_range calls and the
//           basic derivative loops;
//   surface: face by face in order 0..5, rhs -= lift * sign * (f* - f_in)
//           with f* = core::rusanov of single-point fluxes and lambda the
//           larger single-point max_wavespeed of the two states;
//   update: 0 * u + 1 * (u + dt * rhs), the one-stage Shu-Osher form.
// Collective: the face exchange runs on every rank.
std::vector<std::vector<double>> reference_euler_step(Driver& driver,
                                                      double dt) {
  namespace kernels = cmtbone::kernels;
  namespace mesh = cmtbone::mesh;
  const Config& cfg = driver.config();
  const cmtbone::core::HyperbolicSystem& sys = driver.system();
  const mesh::ElementLayout& layout = driver.element_layout();
  const int n = cfg.n;
  const int nf = driver.nfields();
  const int nel = layout.nel();
  const std::size_t epts = std::size_t(n) * n * n;
  const std::size_t pts = epts * nel;
  const int counts[3] = {cfg.ex, cfg.ey, cfg.ez};
  std::array<std::vector<double>, 3> widths;
  for (int axis = 0; axis < 3; ++axis) {
    widths[axis] = mesh::axis_widths(cfg.mesh_map[axis], counts[axis]);
  }
  auto extent = [&](int e, int axis) {
    return widths[axis][std::size_t(layout.global_coords(e)[axis])];
  };

  std::vector<std::vector<double>> u(nf), rhs(nf, std::vector<double>(pts, 0.0));
  const double* uptr[cmtbone::core::kMaxFields];
  for (int f = 0; f < nf; ++f) {
    u[f].assign(driver.field(f).begin(), driver.field(f).end());
    uptr[f] = u[f].data();
  }

  std::vector<std::vector<double>> flux(nf, std::vector<double>(pts));
  std::vector<double> g(epts);
  double* fptr[cmtbone::core::kMaxFields];
  for (int f = 0; f < nf; ++f) fptr[f] = flux[f].data();
  for (int axis = 0; axis < 3; ++axis) {
    for (std::size_t p = 0; p < pts; ++p) sys.flux_range(uptr, fptr, p, p + 1, axis);
    for (int f = 0; f < nf; ++f) {
      for (int e = 0; e < nel; ++e) {
        const double* in = flux[f].data() + e * epts;
        const double* d = driver.operators().d.data();
        const auto v = kernels::GradVariant::kBasic;
        if (axis == 0) kernels::grad_r(v, d, in, g.data(), n, 1);
        if (axis == 1) kernels::grad_s(v, d, in, g.data(), n, 1);
        if (axis == 2) kernels::grad_t(v, d, in, g.data(), n, 1);
        const double scale = 2.0 / extent(e, axis);
        for (std::size_t p = 0; p < epts; ++p) rhs[f][e * epts + p] -= scale * g[p];
      }
    }
  }

  const std::size_t fsz = mesh::face_array_size(n, nel);
  std::vector<double> mine(fsz * nf), nbr(fsz * nf);
  for (int f = 0; f < nf; ++f) mesh::full2face(uptr[f], mine.data() + f * fsz, n, nel);
  driver.face_exchange().exchange(mine.data(), nbr.data(), nf);
  const double w_edge = driver.operators().rule.weights[0];
  double uin[cmtbone::core::kMaxFields], uout[cmtbone::core::kMaxFields];
  double fin[cmtbone::core::kMaxFields], fout[cmtbone::core::kMaxFields];
  const double *pin[cmtbone::core::kMaxFields], *pout[cmtbone::core::kMaxFields];
  double *pfin[cmtbone::core::kMaxFields], *pfout[cmtbone::core::kMaxFields];
  for (int f = 0; f < nf; ++f) {
    pin[f] = &uin[f];
    pout[f] = &uout[f];
    pfin[f] = &fin[f];
    pfout[f] = &fout[f];
  }
  for (int e = 0; e < nel; ++e) {
    for (int face = 0; face < mesh::kFacesPerElement; ++face) {
      const int axis = mesh::face_axis(face);
      const double sign = mesh::face_side(face) == 0 ? -1.0 : 1.0;
      const double lift = 2.0 / extent(e, axis) / w_edge;
      for (int b = 0; b < n; ++b) {
        for (int a = 0; a < n; ++a) {
          const std::size_t q = mesh::face_offset(face, e, n) + a + std::size_t(n) * b;
          const std::size_t v = e * epts + mesh::face_point_volume_index(face, a, b, n);
          for (int f = 0; f < nf; ++f) {
            uin[f] = mine[f * fsz + q];
            uout[f] = nbr[f * fsz + q];
          }
          sys.flux_range(pin, pfin, 0, 1, axis);
          sys.flux_range(pout, pfout, 0, 1, axis);
          const double lambda = std::max(sys.max_wavespeed(pin, 0, 1, axis),
                                         sys.max_wavespeed(pout, 0, 1, axis));
          for (int f = 0; f < nf; ++f) {
            const double fstar = cmtbone::core::rusanov(fin[f], fout[f], uin[f],
                                                        uout[f], lambda, sign);
            rhs[f][v] -= lift * sign * (fstar - fin[f]);
          }
        }
      }
    }
  }

  for (int f = 0; f < nf; ++f) {
    for (std::size_t p = 0; p < pts; ++p) {
      u[f][p] = 0.0 * u[f][p] + 1.0 * (u[f][p] + dt * rhs[f][p]);
    }
  }
  return u;
}

class RhsOrder
    : public ::testing::TestWithParam<std::tuple<Physics, int>> {};

TEST_P(RhsOrder, ForwardEulerStepMatchesReferenceBitForBit) {
  // Comparing configurations with each other cannot catch a rewrite that
  // reorders a point's operations everywhere at once; this pins the order
  // against a reference built from the public pieces. N = 26 lies outside
  // the specialized kernel range (basic-loop fallback).
  const auto [physics, n] = GetParam();
  for (bool geometric : {false, true}) {
    for (int ranks : {1, 2}) {
      Config cfg;
      cfg.physics = physics;
      cfg.n = n;
      cfg.ex = 2;
      cfg.ey = cfg.ez = n > 10 ? 1 : 2;
      if (geometric) {
        cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 1.3, 1.0};
      }
      cfg.integrator = cmtbone::core::TimeIntegrator::kForwardEuler;
      cfg.use_dssum = false;
      cfg.fixed_dt = 1e-3;
      for (bool overlap : {false, true}) {
        cfg.overlap = overlap;
        SCOPED_TRACE(::testing::Message()
                     << cmtbone::core::physics_name(physics) << " n=" << n
                     << (geometric ? " geometric-x" : " uniform") << " ranks="
                     << ranks << " overlap=" << overlap);
        cmtbone::comm::run(ranks, [&](Comm& world) {
          Driver driver(world, cfg);
          driver.initialize(driver.default_ic());
          const auto want = reference_euler_step(driver, cfg.fixed_dt);
          driver.step();
          for (int f = 0; f < driver.nfields(); ++f) {
            const auto got = driver.field(f);
            ASSERT_EQ(got.size(), want[f].size());
            for (std::size_t p = 0; p < got.size(); ++p) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[p]),
                        std::bit_cast<std::uint64_t>(want[f][p]))
                  << "rank " << world.rank() << " field " << f << " point " << p
                  << ": " << got[p] << " vs " << want[f][p];
            }
          }
        });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PhysicsByN, RhsOrder,
    ::testing::Combine(::testing::Values(Physics::kProxyAdvection,
                                         Physics::kBurgers, Physics::kEuler),
                       ::testing::Values(2, 5, 10, 26)),
    [](const ::testing::TestParamInfo<std::tuple<Physics, int>>& info) {
      const Physics physics = std::get<0>(info.param);
      return std::string(physics == Physics::kProxyAdvection ? "proxy"
                         : physics == Physics::kBurgers      ? "burgers"
                                                             : "euler") +
             "_n" + std::to_string(std::get<1>(info.param));
    });

// --- time integrators ---------------------------------------------------------

namespace integrators {

// Linf error of advection after fixed total time with the given integrator
// and step count (error is measured against the exact translate, so it
// contains both spatial and temporal parts; N is high enough that the
// temporal part dominates at these dt).
double advection_error(cmtbone::comm::Comm& world,
                       cmtbone::core::TimeIntegrator ti, int steps,
                       double total_time) {
  Config cfg = advection_config(8, 2);
  cfg.integrator = ti;
  cfg.fixed_dt = total_time / steps;
  Driver driver(world, cfg);
  auto ic = driver.default_ic();
  driver.initialize(ic);
  driver.run(steps);
  const double t = driver.time();
  auto wrap = [](double v) { return v - std::floor(v); };
  return driver.linf_error([&](double x, double y, double z, int f) {
    return ic(wrap(x - 1.0 * t), wrap(y - 0.5 * t), wrap(z - 0.25 * t), f);
  });
}

}  // namespace integrators

TEST(Integrators, MetadataConsistent) {
  using cmtbone::core::TimeIntegrator;
  using cmtbone::core::integrator_stages;
  EXPECT_EQ(integrator_stages(TimeIntegrator::kForwardEuler), 1);
  EXPECT_EQ(integrator_stages(TimeIntegrator::kRk3Ssp), 3);
  EXPECT_EQ(integrator_stages(TimeIntegrator::kRk4), 4);
  EXPECT_STREQ(cmtbone::core::integrator_name(TimeIntegrator::kRk2Ssp),
               "ssp-rk2");
}

TEST(Integrators, TemporalOrderEulerAndRk2) {
  // Halving dt must cut the error by ~2^order while temporal error
  // dominates. Generous brackets absorb the spatial floor.
  cmtbone::comm::run(1, [](Comm& world) {
    using cmtbone::core::TimeIntegrator;
    const double time = 0.04;
    double e1 = integrators::advection_error(world, TimeIntegrator::kForwardEuler,
                                             8, time);
    double e2 = integrators::advection_error(world, TimeIntegrator::kForwardEuler,
                                             16, time);
    double ratio = e1 / e2;
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.6);

    // Larger dt pair for RK2 so its (smaller) temporal error stays above
    // the spatial floor of the N=8 discretization.
    double h1 =
        integrators::advection_error(world, TimeIntegrator::kRk2Ssp, 4, time);
    double h2 =
        integrators::advection_error(world, TimeIntegrator::kRk2Ssp, 8, time);
    double hratio = h1 / h2;
    EXPECT_GT(hratio, 3.0);
    EXPECT_LT(hratio, 5.5);
  });
}

TEST(Integrators, HigherOrderIsMoreAccurateAtSameDt) {
  cmtbone::comm::run(1, [](Comm& world) {
    using cmtbone::core::TimeIntegrator;
    const double time = 0.04;
    double euler = integrators::advection_error(
        world, TimeIntegrator::kForwardEuler, 10, time);
    double rk2 =
        integrators::advection_error(world, TimeIntegrator::kRk2Ssp, 10, time);
    double rk3 =
        integrators::advection_error(world, TimeIntegrator::kRk3Ssp, 10, time);
    double rk4 =
        integrators::advection_error(world, TimeIntegrator::kRk4, 10, time);
    EXPECT_LT(rk2, euler);
    EXPECT_LT(rk3, rk2);
    EXPECT_LE(rk4, rk3 * 1.05);  // rk4 may sit on the spatial floor
  });
}

TEST(Integrators, AllConserveTheIntegral) {
  cmtbone::comm::run(1, [](Comm& world) {
    using cmtbone::core::TimeIntegrator;
    for (auto ti : {TimeIntegrator::kForwardEuler, TimeIntegrator::kRk2Ssp,
                    TimeIntegrator::kRk3Ssp, TimeIntegrator::kRk4}) {
      Config cfg = advection_config(5, 2);
      cfg.integrator = ti;
      cfg.fixed_dt = 1e-3;
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      double before = driver.integral(0);
      driver.run(5);
      EXPECT_NEAR(driver.integral(0), before, 1e-11 * std::abs(before))
          << cmtbone::core::integrator_name(ti);
    }
  });
}

TEST(Driver, NonPeriodicAdvectionRunsStably) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg = advection_config(5, 2);
    cfg.periodic = false;  // mirrored physical boundaries
    cfg.cfl = 0.2;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(5);
    EXPECT_TRUE(std::isfinite(driver.l2_norm(0)));
  });
}

TEST(Driver, ExplicitProcessorGridIsHonored) {
  cmtbone::comm::run(4, [](Comm& world) {
    Config cfg = advection_config(4, 4);
    cfg.px = 4;
    cfg.py = 1;
    cfg.pz = 1;  // slab decomposition instead of the default 2x2x1
    Driver driver(world, cfg);
    const auto& part = driver.partition();
    EXPECT_EQ(part.spec().px, 4);
    EXPECT_EQ(part.nelx(), 1);
    EXPECT_EQ(part.nely(), 4);
    driver.initialize(driver.default_ic());
    driver.run(2);
    EXPECT_TRUE(std::isfinite(driver.l2_norm(0)));
  });
}

TEST(Driver, AnisotropicElementGrid) {
  // Non-cubic global grids (the Fig. 7 geometry is 40x40x16) must work.
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg;
    cfg.physics = Physics::kAdvection;
    cfg.n = 4;
    cfg.ex = 4;
    cfg.ey = 2;
    cfg.ez = 1;
    cfg.use_dssum = false;
    cfg.fixed_dt = 5e-4;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    double before = driver.integral(0);
    driver.run(4);
    EXPECT_NEAR(driver.integral(0), before, 1e-11 * std::abs(before));
  });
}

TEST(Driver, FlopsAccountingMatchesFaceBytes) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg = advection_config(5, 2);
    Driver driver(world, cfg);
    // 2 ranks: each owns a 1x2x2 block of 2x2x2 elements... (px,py,pz)
    // auto-derived as 2x1x1, so each rank owns 1x2x2 = 4 elements.
    EXPECT_GT(driver.face_exchange().send_bytes_per_exchange(driver.nfields()),
              0);
    EXPECT_GT(driver.flops_per_rhs(), 0);
  });
}

TEST(Driver, MismatchedProcessorGridThrows) {
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg = advection_config(4, 2);
    cfg.px = 3;
    cfg.py = 1;
    cfg.pz = 1;  // 3 != comm size 2
    EXPECT_THROW(Driver(world, cfg), std::invalid_argument);
  });
}

TEST(Driver, NonPositiveUniformAxisLengthThrows) {
  // A uniform axis map is checked like a stretched one: a zero or negative
  // length is refused at construction instead of producing NaN fields or a
  // spurious SolverDiverged on the first step.
  cmtbone::comm::run(1, [](Comm& world) {
    for (double length : {0.0, -1.0}) {
      Config cfg = advection_config(4, 2);
      cfg.mesh_map[0].length = length;
      EXPECT_THROW(Driver(world, cfg), std::invalid_argument) << length;
    }
  });
}

}  // namespace

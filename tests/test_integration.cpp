// Cross-module integration: full pipelines through comm + mesh + gs +
// kernels + core/nekbone together.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "nekbone/nekbone.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::Physics;

struct PipelineCase {
  Physics physics;
  cmtbone::gs::Method gs_method;
  cmtbone::core::TimeIntegrator integrator;
  int ranks;
};

class Pipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(Pipeline, RunsStableAndConservative) {
  const PipelineCase& c = GetParam();
  cmtbone::comm::run(c.ranks, [&](Comm& world) {
    Config cfg;
    cfg.physics = c.physics;
    cfg.gs_method = c.gs_method;
    cfg.integrator = c.integrator;
    cfg.n = 5;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = c.physics == Physics::kProxyAdvection;
    cfg.cfl = 0.2;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    std::vector<double> before(driver.nfields());
    for (int f = 0; f < driver.nfields(); ++f) before[f] = driver.integral(f);
    driver.run(3);
    for (int f = 0; f < driver.nfields(); ++f) {
      double after = driver.integral(f);
      double scale = std::max(1.0, std::abs(before[f]));
      EXPECT_NEAR(after, before[f], 1e-9 * scale) << "field " << f;
      EXPECT_TRUE(std::isfinite(driver.l2_norm(f)));
    }
  });
}

std::vector<PipelineCase> pipeline_cases() {
  using TI = cmtbone::core::TimeIntegrator;
  using M = cmtbone::gs::Method;
  std::vector<PipelineCase> cases;
  for (Physics ph : {Physics::kProxyAdvection, Physics::kAdvection,
                     Physics::kEuler}) {
    for (M m : {M::kPairwise, M::kCrystalRouter}) {
      for (int ranks : {1, 4}) {
        cases.push_back({ph, m, TI::kRk3Ssp, ranks});
      }
    }
  }
  // A couple of integrator variations on the proxy path.
  cases.push_back({Physics::kProxyAdvection, M::kPairwise, TI::kRk4, 2});
  cases.push_back({Physics::kProxyAdvection, M::kAllReduce, TI::kRk2Ssp, 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Pipeline, ::testing::ValuesIn(pipeline_cases()),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      const PipelineCase& c = info.param;
      std::string name = cmtbone::core::physics_name(c.physics);
      name += c.gs_method == cmtbone::gs::Method::kPairwise       ? "_pw"
              : c.gs_method == cmtbone::gs::Method::kCrystalRouter ? "_cr"
                                                                    : "_ar";
      name += "_" + std::string(cmtbone::core::integrator_name(c.integrator));
      name += "_r" + std::to_string(c.ranks);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Integration, RunsAreBitwiseDeterministic) {
  // Two identical runs produce identical fields (fixed dt avoids timing-
  // dependent reductions; the comm runtime itself must be deterministic).
  auto run_once = [](std::vector<double>* out) {
    cmtbone::comm::run(4, [&](Comm& world) {
      Config cfg;
      cfg.n = 5;
      cfg.ex = cfg.ey = cfg.ez = 2;
      cfg.fixed_dt = 1e-3;
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      driver.run(4);
      if (world.rank() == 2) {
        auto f = driver.field(0);
        out->assign(f.begin(), f.end());
      }
    });
  };
  std::vector<double> a, b;
  run_once(&a);
  run_once(&b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "index " << i;
  }
}

TEST(Integration, DriverAndNekboneShareOneJob) {
  // Both mini-apps build their own gs handles and exchange plans inside the
  // same parallel job (the Fig. 7 measurement pattern) without interfering.
  cmtbone::comm::run(4, [](Comm& world) {
    Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());

    cmtbone::nekbone::NekboneConfig ncfg;
    ncfg.n = 4;
    ncfg.ex = ncfg.ey = ncfg.ez = 2;
    cmtbone::nekbone::Nekbone nb(world, ncfg);

    driver.run(2);
    for (int i = 0; i < 2; ++i) nb.proxy_iteration();
    driver.run(2);

    EXPECT_TRUE(std::isfinite(driver.l2_norm(0)));
  });
}

TEST(Integration, NekboneSolutionFeedsDriverInitialCondition) {
  // Use a Nekbone CG solution as the driver's initial condition — the
  // cross-library data path a coupled application would use.
  cmtbone::comm::run(2, [](Comm& world) {
    cmtbone::nekbone::NekboneConfig ncfg;
    ncfg.n = 5;
    ncfg.ex = ncfg.ey = ncfg.ez = 2;
    ncfg.h2 = 1.0;
    cmtbone::nekbone::Nekbone nb(world, ncfg);
    std::vector<double> b(nb.points()), x(nb.points(), 0.0);
    nb.assemble_rhs([](double xx, double, double) {
      return std::sin(2 * M_PI * xx);
    }, std::span<double>(b));
    nb.solve_cg(std::span<double>(x), b, 100, 1e-10);

    Config cfg;
    cfg.physics = Physics::kAdvection;
    cfg.n = 5;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.use_dssum = false;
    cfg.fixed_dt = 1e-3;
    Driver driver(world, cfg);
    // Same mesh and rank layout: copy point-for-point.
    std::copy(x.begin(), x.end(), driver.mutable_field(0).begin());
    double before = driver.integral(0);
    driver.run(3);
    EXPECT_NEAR(driver.integral(0), before, 1e-10 * std::max(1.0, std::abs(before)));
  });
}

}  // namespace

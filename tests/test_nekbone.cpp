// Mini-Nekbone: operator properties, CG convergence, parallel agreement.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include <algorithm>

#include "comm/runtime.hpp"
#include "kernels/dispatch.hpp"
#include "mesh/numbering.hpp"
#include "nekbone/nekbone.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::nekbone::Nekbone;
using cmtbone::nekbone::NekboneConfig;

NekboneConfig small_config(int n = 5, int e = 2) {
  NekboneConfig cfg;
  cfg.n = n;
  cfg.ex = cfg.ey = cfg.ez = e;
  return cfg;
}

TEST(Nekbone, OperatorIsSymmetric) {
  cmtbone::comm::run(1, [](Comm& world) {
    Nekbone nb(world, small_config());
    const std::size_t pts = nb.points();
    // Continuous random vectors: evaluate smooth functions at nodes.
    std::vector<double> u(pts), v(pts), au(pts), av(pts);
    nb.evaluate([](double x, double y, double z) {
      return std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) + z * z;
    }, std::span<double>(u));
    nb.evaluate([](double x, double y, double z) {
      return std::cos(2 * M_PI * z) + x * y;
    }, std::span<double>(v));
    nb.apply_ax(u, std::span<double>(au));
    nb.apply_ax(v, std::span<double>(av));
    double uav = nb.dot(u, av);
    double vau = nb.dot(v, au);
    EXPECT_NEAR(uav, vau, 1e-10 * std::max(std::abs(uav), 1.0));
  });
}

TEST(Nekbone, OperatorIsPositiveDefinite) {
  cmtbone::comm::run(1, [](Comm& world) {
    Nekbone nb(world, small_config());
    const std::size_t pts = nb.points();
    std::vector<double> u(pts), au(pts);
    nb.evaluate([](double x, double y, double z) {
      return std::sin(2 * M_PI * x) + std::sin(4 * M_PI * y) + z;
    }, std::span<double>(u));
    nb.apply_ax(u, std::span<double>(au));
    EXPECT_GT(nb.dot(u, au), 0.0);
  });
}

TEST(Nekbone, ConstantVectorGivesMassTerm) {
  // K annihilates constants, so A*1 = h2 * M * 1 (then dssum'd); the
  // weighted dot <1, A 1> equals h2 * volume = h2 (unit box).
  cmtbone::comm::run(1, [](Comm& world) {
    NekboneConfig cfg = small_config();
    cfg.h2 = 0.7;
    Nekbone nb(world, cfg);
    std::vector<double> ones(nb.points(), 1.0), a(nb.points());
    nb.apply_ax(ones, std::span<double>(a));
    EXPECT_NEAR(nb.dot(ones, a), 0.7, 1e-10);
  });
}

TEST(Nekbone, CgSolvesManufacturedHelmholtzProblem) {
  // (-lap + h2) u = f with u = sin(2 pi x) sin(2 pi y) sin(2 pi z):
  // f = (12 pi^2 + h2) u. CG must recover u to spectral accuracy.
  cmtbone::comm::run(1, [](Comm& world) {
    NekboneConfig cfg;
    cfg.n = 8;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.h2 = 1.0;
    Nekbone nb(world, cfg);
    auto exact = [](double x, double y, double z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    };
    const double factor = 12.0 * M_PI * M_PI + cfg.h2;
    std::vector<double> b(nb.points()), x(nb.points(), 0.0), ue(nb.points());
    nb.assemble_rhs([&](double xx, double yy, double zz) {
      return factor * exact(xx, yy, zz);
    }, std::span<double>(b));
    auto result = nb.solve_cg(std::span<double>(x), b, 500, 1e-10);
    EXPECT_LT(result.residual, 1e-9);
    nb.evaluate(exact, std::span<double>(ue));
    double num = 0, den = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      num = std::max(num, std::abs(x[i] - ue[i]));
      den = std::max(den, std::abs(ue[i]));
    }
    EXPECT_LT(num / den, 5e-4);
  });
}

TEST(Nekbone, CgResidualDecreasesMonotonicallyToTolerance) {
  cmtbone::comm::run(1, [](Comm& world) {
    Nekbone nb(world, small_config(6, 2));
    std::vector<double> b(nb.points()), x(nb.points(), 0.0);
    nb.assemble_rhs([](double xx, double, double) {
      return std::sin(2 * M_PI * xx);
    }, std::span<double>(b));
    auto loose = nb.solve_cg(std::span<double>(x), b, 3, 0.0);
    double r3 = loose.residual;
    std::fill(x.begin(), x.end(), 0.0);
    auto tight = nb.solve_cg(std::span<double>(x), b, 50, 0.0);
    EXPECT_LT(tight.residual, r3);
    EXPECT_EQ(loose.iterations, 3);
  });
}

TEST(Nekbone, ParallelSolveMatchesSerialSolve) {
  NekboneConfig cfg = small_config(5, 2);
  cfg.h2 = 1.0;
  auto forcing = [](double x, double y, double) {
    return std::cos(2 * M_PI * x) + std::sin(2 * M_PI * y);
  };
  double serial_norm = 0.0;
  cmtbone::comm::run(1, [&](Comm& world) {
    Nekbone nb(world, cfg);
    std::vector<double> b(nb.points()), x(nb.points(), 0.0);
    nb.assemble_rhs(forcing, std::span<double>(b));
    nb.solve_cg(std::span<double>(x), b, 200, 1e-11);
    serial_norm = std::sqrt(nb.dot(x, x));
  });
  cmtbone::comm::run(4, [&](Comm& world) {
    NekboneConfig pcfg = cfg;
    Nekbone nb(world, pcfg);
    std::vector<double> b(nb.points()), x(nb.points(), 0.0);
    nb.assemble_rhs(forcing, std::span<double>(b));
    nb.solve_cg(std::span<double>(x), b, 200, 1e-11);
    double parallel_norm = std::sqrt(nb.dot(x, x));
    EXPECT_NEAR(parallel_norm, serial_norm, 1e-8 * std::max(serial_norm, 1.0));
  });
}

TEST(Nekbone, SolutionSatisfiesTheLinearSystem) {
  // After CG converges, A x must reproduce b to the solver tolerance.
  cmtbone::comm::run(2, [](Comm& world) {
    Nekbone nb(world, small_config(5, 2));
    std::vector<double> b(nb.points()), x(nb.points(), 0.0), ax(nb.points());
    nb.assemble_rhs([](double xx, double yy, double zz) {
      return std::sin(2 * M_PI * xx) * std::cos(2 * M_PI * yy) +
             std::sin(2 * M_PI * zz);
    }, std::span<double>(b));
    auto result = nb.solve_cg(std::span<double>(x), b, 300, 1e-11);
    EXPECT_LT(result.residual, 1e-10);
    nb.apply_ax(x, std::span<double>(ax));
    double err = 0, scale = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      err = std::max(err, std::abs(ax[i] - b[i]));
      scale = std::max(scale, std::abs(b[i]));
    }
    EXPECT_LT(err, 1e-8 * std::max(scale, 1.0));
  });
}

TEST(Nekbone, DenseOperatorMatrixIsSymmetric) {
  // Assemble A column by column on a tiny problem (unit vector per unique
  // global dof, replicated across its local copies) and check A = A^T.
  cmtbone::comm::run(1, [](Comm& world) {
    NekboneConfig cfg = small_config(3, 2);
    Nekbone nb(world, cfg);
    cmtbone::mesh::BoxSpec spec;
    spec.n = cfg.n;
    spec.ex = spec.ey = spec.ez = cfg.ex;
    spec.px = spec.py = spec.pz = 1;
    auto gids = cmtbone::mesh::global_gll_ids(
        cmtbone::mesh::ElementLayout::block(spec, 0));

    std::vector<long long> unique(gids.begin(), gids.end());
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    const int dofs = int(unique.size());

    std::vector<std::vector<double>> columns(dofs);
    std::vector<double> e(nb.points()), ae(nb.points());
    for (int c = 0; c < dofs; ++c) {
      for (std::size_t s = 0; s < gids.size(); ++s) {
        e[s] = gids[s] == unique[c] ? 1.0 : 0.0;  // continuous unit vector
      }
      nb.apply_ax(e, std::span<double>(ae));
      columns[c] = ae;
    }
    // A(r,c) via the weighted dot against unit vector r.
    std::vector<double> er(nb.points());
    for (int r = 0; r < dofs; ++r) {
      for (std::size_t s = 0; s < gids.size(); ++s) {
        er[s] = gids[s] == unique[r] ? 1.0 : 0.0;
      }
      for (int c = r + 1; c < dofs; ++c) {
        double a_rc = nb.dot(er, columns[c]);
        // Column r evaluated at row c:
        for (std::size_t s = 0; s < gids.size(); ++s) {
          er[s] = gids[s] == unique[c] ? 1.0 : 0.0;
        }
        double a_cr = nb.dot(er, columns[r]);
        ASSERT_NEAR(a_rc, a_cr, 1e-10 * std::max(1.0, std::abs(a_rc)))
            << "entry (" << r << "," << c << ")";
        for (std::size_t s = 0; s < gids.size(); ++s) {
          er[s] = gids[s] == unique[r] ? 1.0 : 0.0;
        }
      }
    }
  });
}

TEST(Nekbone, DotCountsSharedPointsOnce) {
  // <1, 1> weighted by inverse multiplicity equals the number of distinct
  // global points, independent of the partition.
  NekboneConfig cfg = small_config(4, 2);
  std::vector<double> counts;
  for (int p : {1, 2, 4}) {
    cmtbone::comm::run(p, [&](Comm& world) {
      Nekbone nb(world, cfg);
      std::vector<double> ones(nb.points(), 1.0);
      double count = nb.dot(ones, ones);
      // dot is a collective: every rank holds the same value, so only rank
      // 0 records it (rank threads run concurrently; a shared push_back
      // from every rank is a data race).
      if (world.rank() == 0) counts.push_back(count);
    });
  }
  // 2x2x2 elements of 4^3 points, periodic: (2*3)^3 distinct points.
  EXPECT_NEAR(counts[0], 216.0, 1e-9);
  for (double c : counts) EXPECT_NEAR(c, counts[0], 1e-9);
}

TEST(Nekbone, ProxyIterationRunsOnManyRanks) {
  cmtbone::comm::run(8, [](Comm& world) {
    NekboneConfig cfg = small_config(4, 2);
    Nekbone nb(world, cfg);
    for (int i = 0; i < 3; ++i) nb.proxy_iteration();
    SUCCEED();
  });
}

TEST(Nekbone, GsMethodDoesNotChangeTheSolve) {
  NekboneConfig cfg = small_config(5, 2);
  auto forcing = [](double x, double, double) {
    return std::sin(2 * M_PI * x);
  };
  std::vector<double> norms;
  for (auto m : {cmtbone::gs::Method::kPairwise,
                 cmtbone::gs::Method::kCrystalRouter,
                 cmtbone::gs::Method::kAllReduce}) {
    cmtbone::comm::run(2, [&](Comm& world) {
      NekboneConfig c = cfg;
      c.gs_method = m;
      Nekbone nb(world, c);
      std::vector<double> b(nb.points()), x(nb.points(), 0.0);
      nb.assemble_rhs(forcing, std::span<double>(b));
      nb.solve_cg(std::span<double>(x), b, 100, 1e-10);
      double norm = std::sqrt(nb.dot(x, x));
      if (world.rank() == 0) norms.push_back(norm);
    });
  }
  EXPECT_NEAR(norms[1], norms[0], 1e-8 * std::max(norms[0], 1.0));
  EXPECT_NEAR(norms[2], norms[0], 1e-8 * std::max(norms[0], 1.0));
}

TEST(Nekbone, StiffnessOperatorBitIdenticalToScalarReference) {
  // The operator runs its derivative contractions under the default kernel
  // backend. Rebuilt from the scalar reference loops (grad_backend with
  // kScalar), the same diagonal factors, the same evaluation order and the
  // same dssum, A u must come out bit for bit.
  cmtbone::comm::run(1, [](Comm& world) {
    using cmtbone::kernels::Backend;
    const NekboneConfig cfg = small_config(5, 2);
    Nekbone nb(world, cfg);
    const int n = cfg.n;
    const int nel = cfg.ex * cfg.ey * cfg.ez;
    const std::size_t pts = nb.points();
    std::vector<double> u(pts);
    nb.evaluate([](double x, double y, double z) {
      return std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) + z * z * x;
    }, std::span<double>(u));

    // Diagonal factors of the uniform box, as Nekbone builds them.
    const auto ops = cmtbone::sem::Operators::build(n);
    const std::vector<double>& w = ops.rule.weights;
    const double h[3] = {1.0 / cfg.ex, 1.0 / cfg.ey, 1.0 / cfg.ez};
    const double jac = 0.125 * h[0] * h[1] * h[2];
    std::vector<double> grr(pts), gss(pts), gtt(pts), mass(pts);
    std::size_t idx = 0;
    for (int e = 0; e < nel; ++e) {
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < n; ++i, ++idx) {
            const double www = w[i] * w[j] * w[k];
            grr[idx] = www * h[1] * h[2] / (2.0 * h[0]);
            gss[idx] = www * h[0] * h[2] / (2.0 * h[1]);
            gtt[idx] = www * h[0] * h[1] / (2.0 * h[2]);
            mass[idx] = www * jac;
          }
        }
      }
    }

    auto grad = [&](int dir, const std::vector<double>& d, const double* in,
                    double* out) {
      cmtbone::kernels::grad_backend(Backend::kScalar, dir, d.data(), in, out,
                                     n, nel);
    };
    std::vector<double> ur(pts), us(pts), ut(pts), want(pts), tmp(pts);
    grad(0, ops.d, u.data(), ur.data());
    grad(1, ops.d, u.data(), us.data());
    grad(2, ops.d, u.data(), ut.data());
    for (std::size_t p = 0; p < pts; ++p) {
      ur[p] *= grr[p];
      us[p] *= gss[p];
      ut[p] *= gtt[p];
    }
    grad(0, ops.dt, ur.data(), want.data());
    grad(1, ops.dt, us.data(), tmp.data());
    for (std::size_t p = 0; p < pts; ++p) want[p] += tmp[p];
    grad(2, ops.dt, ut.data(), tmp.data());
    for (std::size_t p = 0; p < pts; ++p) {
      want[p] = cfg.h1 * (want[p] + tmp[p]) + cfg.h2 * mass[p] * u[p];
    }
    nb.gather_scatter().exec(std::span<double>(want),
                             cmtbone::gs::ReduceOp::kSum);

    std::vector<double> got(pts);
    nb.apply_ax(u, std::span<double>(got));
    for (std::size_t p = 0; p < pts; ++p) {
      ASSERT_EQ(want[p], got[p]) << "point " << p;
    }
  });
}

}  // namespace

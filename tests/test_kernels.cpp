// Kernel variants: mxm, gradient loop transformations, tensor apply.

#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"
#include "kernels/simd_backend.hpp"
#include "kernels/tensor.hpp"
#include "sem/operators.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::kernels::GradVariant;
using cmtbone::util::SplitMix64;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Mxm, MatchesNaiveTripleLoop) {
  const int n1 = 5, n2 = 7, n3 = 4;
  auto a = random_vec(std::size_t(n1) * n2, 1);
  auto b = random_vec(std::size_t(n2) * n3, 2);
  std::vector<double> c(std::size_t(n1) * n3, -7.0);
  cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, c.data(), n3);
  for (int j = 0; j < n3; ++j) {
    for (int i = 0; i < n1; ++i) {
      double s = 0.0;
      for (int l = 0; l < n2; ++l) s += a[i + n1 * l] * b[l + n2 * j];
      EXPECT_NEAR(c[i + n1 * j], s, 1e-13);
    }
  }
}

TEST(Mxm, IdentityLeavesMatrixUnchanged) {
  const int n = 6;
  std::vector<double> eye(n * n, 0.0);
  for (int i = 0; i < n; ++i) eye[i + n * i] = 1.0;
  auto b = random_vec(n * n, 3);
  std::vector<double> c(n * n);
  cmtbone::kernels::mxm(eye.data(), n, b.data(), n, c.data(), n);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_DOUBLE_EQ(c[i], b[i]);
}

TEST(Gradient, MxmFixedVariantBitIdenticalToBasic) {
  // The dispatched variant runs the default backend, batched (per-N SIMD
  // contractions, D^T staged once per call), against the basic loops.
  for (int n : {5, 9, 13}) {
    const int nel = 3;
    const std::size_t pts = std::size_t(n) * n * n * nel;
    auto ops = cmtbone::sem::Operators::build(n);
    auto u = random_vec(pts, 40 + n);
    std::vector<double> ref(pts), got(pts);
    using cmtbone::kernels::grad_r;
    using cmtbone::kernels::grad_s;
    using cmtbone::kernels::grad_t;
    grad_r(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_r(GradVariant::kDispatch, ops.d.data(), u.data(), got.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], got[p]) << n;
    grad_s(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_s(GradVariant::kDispatch, ops.d.data(), u.data(), got.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], got[p]) << n;
    grad_t(GradVariant::kBasic, ops.d.data(), u.data(), ref.data(), n, nel);
    grad_t(GradVariant::kDispatch, ops.d.data(), u.data(), got.data(), n, nel);
    for (std::size_t p = 0; p < pts; ++p) ASSERT_EQ(ref[p], got[p]) << n;
  }
}

// --- gradient variants agree with the basic reference ----------------------

struct GradCase {
  int n;
  GradVariant variant;
};

class GradAgree : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradAgree, AllDirectionsMatchBasic) {
  const auto [n, variant] = GetParam();
  const int nel = 3;
  const std::size_t pts = std::size_t(n) * n * n * nel;
  auto op = cmtbone::sem::Operators::build(n);
  auto u = random_vec(pts, 100 + n);

  std::vector<double> ref(pts), got(pts);
  using cmtbone::kernels::grad_r;
  using cmtbone::kernels::grad_s;
  using cmtbone::kernels::grad_t;

  grad_r(GradVariant::kBasic, op.d.data(), u.data(), ref.data(), n, nel);
  grad_r(variant, op.d.data(), u.data(), got.data(), n, nel);
  for (std::size_t i = 0; i < pts; ++i) EXPECT_NEAR(got[i], ref[i], 1e-12);

  grad_s(GradVariant::kBasic, op.d.data(), u.data(), ref.data(), n, nel);
  grad_s(variant, op.d.data(), u.data(), got.data(), n, nel);
  for (std::size_t i = 0; i < pts; ++i) EXPECT_NEAR(got[i], ref[i], 1e-12);

  grad_t(GradVariant::kBasic, op.d.data(), u.data(), ref.data(), n, nel);
  grad_t(variant, op.d.data(), u.data(), got.data(), n, nel);
  for (std::size_t i = 0; i < pts; ++i) EXPECT_NEAR(got[i], ref[i], 1e-12);
}

std::vector<GradCase> all_grad_cases() {
  std::vector<GradCase> cases;
  for (int n : {2, 3, 5, 8, 10, 13, 16, 25, 27 /* no unrolled instantiation */}) {
    for (GradVariant v : cmtbone::kernels::all_variants()) {
      cases.push_back({n, v});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradAgree, ::testing::ValuesIn(all_grad_cases()),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      std::string name = cmtbone::kernels::variant_name(info.param.variant);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return "N" + std::to_string(info.param.n) + "_" + name;
    });

// --- gradients differentiate correctly -------------------------------------

TEST(Gradient, DifferentiatesTensorPolynomialExactly) {
  // u(r,s,t) = r^2 s + 3 t on one element; all three partials are degree
  // < n, so spectral differentiation is exact.
  const int n = 6, nel = 1;
  auto op = cmtbone::sem::Operators::build(n);
  const auto& x = op.rule.nodes;
  std::vector<double> u(n * n * n), ur(u.size()), us(u.size()), ut(u.size());
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        u[i + n * (j + n * k)] = x[i] * x[i] * x[j] + 3.0 * x[k];
      }
    }
  }
  cmtbone::kernels::grad3(GradVariant::kFusedUnrolled, op.d.data(), u.data(),
                          ur.data(), us.data(), ut.data(), n, nel);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        std::size_t p = i + n * (j + std::size_t(n) * k);
        EXPECT_NEAR(ur[p], 2.0 * x[i] * x[j], 1e-11);
        EXPECT_NEAR(us[p], x[i] * x[i], 1e-11);
        EXPECT_NEAR(ut[p], 3.0, 1e-11);
      }
    }
  }
}

TEST(Gradient, FlopAndInstructionModels) {
  using cmtbone::kernels::grad_flops;
  using cmtbone::kernels::grad_instruction_estimate;
  EXPECT_EQ(grad_flops(10, 1), 20000);
  EXPECT_EQ(grad_flops(10, 100), 2000000);
  // Unrolling must reduce the modeled instruction count, never the flops.
  for (int n : {5, 10, 25}) {
    long long basic =
        grad_instruction_estimate(GradVariant::kBasic, n, 10);
    long long unrolled =
        grad_instruction_estimate(GradVariant::kFusedUnrolled, n, 10);
    EXPECT_GT(basic, unrolled);
    EXPECT_GT(unrolled, grad_flops(n, 10));  // model includes memory ops
  }
}

// --- tensor-product application ---------------------------------------------

TEST(TensorApply, MatchesDirectSum) {
  const int n = 4, m = 5;
  auto a = random_vec(std::size_t(m) * n, 7);  // m x n
  std::vector<double> at(n * m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) at[j + n * i] = a[i + m * j];
  }
  auto u = random_vec(std::size_t(n) * n * n, 8);
  std::vector<double> out(std::size_t(m) * m * m);
  std::vector<double> work(cmtbone::kernels::tensor_work_size(m, n));
  cmtbone::kernels::tensor_apply3(a.data(), at.data(), m, n, u.data(),
                                  out.data(), work.data());
  for (int c = 0; c < m; ++c) {
    for (int b = 0; b < m; ++b) {
      for (int aa = 0; aa < m; ++aa) {
        double s = 0.0;
        for (int k = 0; k < n; ++k) {
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < n; ++i) {
              s += a[aa + m * i] * a[b + m * j] * a[c + m * k] *
                   u[i + n * (j + std::size_t(n) * k)];
            }
          }
        }
        EXPECT_NEAR(out[aa + m * (b + std::size_t(m) * c)], s, 1e-12);
      }
    }
  }
}

TEST(TensorApply, DealiasRoundTripPreservesResolvedPolynomials) {
  // A degree-(n-1) tensor polynomial lives exactly in the coarse space, so
  // interpolating up and projecting back must reproduce it.
  const int n = 5;
  auto op = cmtbone::sem::Operators::build(n);
  const int m = op.m;
  const auto& x = op.rule.nodes;
  std::vector<double> u(n * n * n);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        u[i + n * (j + std::size_t(n) * k)] =
            (1 + x[i]) * (2 - x[j] * x[j]) * (0.5 + x[k]);
      }
    }
  }
  std::vector<double> fine(std::size_t(m) * m * m), back(u.size());
  std::vector<double> work(cmtbone::kernels::tensor_work_size(m, m));
  // Interpolate up; the interpolant of a resolved polynomial evaluated back
  // on the coarse nodes (via interpolation fine->coarse, using interp_t as
  // the evaluation of coarse basis at fine nodes transposed) recovers it.
  cmtbone::kernels::tensor_apply3(op.interp.data(), op.interp_t.data(), m, n,
                                  u.data(), fine.data(), work.data());
  // The fine values must equal the polynomial evaluated at fine nodes.
  const auto& y = op.fine_rule.nodes;
  for (int k = 0; k < m; ++k) {
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) {
        double exact = (1 + y[i]) * (2 - y[j] * y[j]) * (0.5 + y[k]);
        EXPECT_NEAR(fine[i + m * (j + std::size_t(m) * k)], exact, 1e-11);
      }
    }
  }
  (void)back;
}

// ---- SIMD / dispatch backend parity -----------------------------------------
//
// Accumulation-order policy under test (simd_backend.hpp, DESIGN.md):
//
//   * Every C(i,j) accumulates over l ascending from zero, and SIMD
//     parallelism runs only across output rows i — never across the
//     contraction. The non-fma kernels therefore perform the same
//     multiplies and adds, in the same order, as the scalar mxm(), and
//     must match it BIT FOR BIT. The suites below assert with ASSERT_EQ
//     on doubles, i.e. exact bit equality (no tolerance).
//
//   * The fma kernels keep that order but fuse each multiply-add into a
//     single rounding. Against the two-roundings-per-step scalar
//     reference, each of the n2 steps can perturb the running sum by at
//     most one ulp of the accumulated magnitude, so
//
//       |fma - scalar| <= 2 * n2 * eps * sum_l |a(i,l) * b(l,j)|
//
//     with the bound computed from the data (the absolute-value
//     contraction), not from the result — a naive relative-error check
//     breaks down under cancellation. fma results are still fully
//     deterministic: same inputs give the same bits, run to run and at
//     any thread count.

using cmtbone::kernels::Backend;
using cmtbone::kernels::kMaxDispatchN;
using cmtbone::kernels::kMinDispatchN;
using cmtbone::kernels::MxmFixedFn;
using cmtbone::kernels::SimdBackend;

std::vector<const SimdBackend*> compiled_simd_backends() {
  std::vector<const SimdBackend*> v;
  for (const SimdBackend* b : {cmtbone::kernels::simd_backend_portable(),
                               cmtbone::kernels::simd_backend_avx2(),
                               cmtbone::kernels::simd_backend_avx512()}) {
    if (b) v.push_back(b);  // ISA TUs may be compiled out or unsupported.
  }
  return v;
}

// Data-derived fma tolerance for C(i,j): the absolute-value contraction
// bounds the magnitude each fused step rounds.
double fma_tol(const double* a, int n1, const double* b, int n2, int i,
               int j) {
  double mag = 0.0;
  for (int l = 0; l < n2; ++l) {
    mag += std::fabs(a[i + std::size_t(n1) * l]) *
           std::fabs(b[l + std::size_t(n2) * j]);
  }
  return 2.0 * n2 * DBL_EPSILON * mag + 1e-300;
}

TEST(SimdParity, NonFmaBitIdenticalToScalarForEveryIsaAndN) {
  const auto backends = compiled_simd_backends();
  ASSERT_FALSE(backends.empty());
  // Row counts that are odd, prime, and off the 8/4/2 vector widths
  // exercise the whole row cascade and its scalar tail; offset=1 slides
  // every base pointer one double past the allocation start, so the
  // kernels also run from vector-misaligned addresses.
  const int n1s[] = {1, 2, 3, 5, 8, 12, 16, 17, 25};
  const int n3s[] = {1, 3, 6};
  for (const SimdBackend* bk : backends) {
    for (int n2 = kMinDispatchN; n2 <= kMaxDispatchN; ++n2) {
      MxmFixedFn f = bk->mxm_kernel(n2, /*fma=*/false);
      ASSERT_NE(f, nullptr) << bk->name << " n2=" << n2;
      for (int n1 : n1s) {
        for (int n3 : n3s) {
          for (std::uint64_t seed : {11u, 97u}) {
            for (int offset : {0, 1}) {
              auto a = random_vec(std::size_t(n1) * n2 + offset, seed * n2);
              auto b =
                  random_vec(std::size_t(n2) * n3 + offset, seed * n2 + 1);
              std::vector<double> want(std::size_t(n1) * n3 + offset, -3.0);
              std::vector<double> got = want;
              cmtbone::kernels::mxm(a.data() + offset, n1, b.data() + offset,
                                    n2, want.data() + offset, n3);
              f(a.data() + offset, n1, b.data() + offset, got.data() + offset,
                n3);
              for (std::size_t p = 0; p < want.size(); ++p) {
                ASSERT_EQ(want[p], got[p])
                    << bk->name << " n1=" << n1 << " n2=" << n2
                    << " n3=" << n3 << " seed=" << seed
                    << " offset=" << offset << " index=" << p;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdParity, FmaWithinDataDerivedBoundAndDeterministic) {
  const auto backends = compiled_simd_backends();
  ASSERT_FALSE(backends.empty());
  const int n1s[] = {1, 3, 5, 8, 17};
  const int n3 = 5;
  for (const SimdBackend* bk : backends) {
    for (int n2 = kMinDispatchN; n2 <= kMaxDispatchN; ++n2) {
      MxmFixedFn f = bk->mxm_kernel(n2, /*fma=*/true);
      ASSERT_NE(f, nullptr) << bk->name << " n2=" << n2;
      for (int n1 : n1s) {
        auto a = random_vec(std::size_t(n1) * n2, 131u * n2 + n1);
        auto b = random_vec(std::size_t(n2) * n3, 137u * n2 + n1);
        std::vector<double> ref(std::size_t(n1) * n3, 0.0);
        std::vector<double> got(ref.size(), 0.0), again(ref.size(), 0.0);
        cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, ref.data(), n3);
        f(a.data(), n1, b.data(), got.data(), n3);
        f(a.data(), n1, b.data(), again.data(), n3);
        for (int j = 0; j < n3; ++j) {
          for (int i = 0; i < n1; ++i) {
            const std::size_t p = i + std::size_t(n1) * j;
            // Same inputs, same bits: fma differs from scalar, never from
            // itself.
            ASSERT_EQ(got[p], again[p])
                << bk->name << " n1=" << n1 << " n2=" << n2 << " i=" << i
                << " j=" << j;
            ASSERT_LE(std::fabs(got[p] - ref[p]),
                      fma_tol(a.data(), n1, b.data(), n2, i, j))
                << bk->name << " n1=" << n1 << " n2=" << n2 << " i=" << i
                << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(DispatchParity, EveryBackendGradMatchesScalarForAllNAndDirections) {
  // grad_backend under every Backend vs the kScalar reference, for every
  // dispatched n plus one beyond the table (n=27: the SIMD paths must
  // degrade to the runtime kernel, still bit-exact). The fma bound
  // reuses the absolute-value trick: running the scalar gradient on
  // |d|, |u| yields sum_l |d * u| at every output point.
  const int nel = 3;
  std::vector<int> ns;
  for (int n = kMinDispatchN; n <= kMaxDispatchN; ++n) ns.push_back(n);
  ns.push_back(kMaxDispatchN + 2);
  for (int n : ns) {
    const std::size_t pts = std::size_t(n) * n * n * nel;
    auto d = random_vec(std::size_t(n) * n, 1000u + n);
    auto u = random_vec(pts, 2000u + n);
    std::vector<double> ad(d.size()), au(u.size());
    for (std::size_t p = 0; p < d.size(); ++p) ad[p] = std::fabs(d[p]);
    for (std::size_t p = 0; p < u.size(); ++p) au[p] = std::fabs(u[p]);
    for (int dir = 0; dir < 3; ++dir) {
      std::vector<double> ref(pts, 0.0), mag(pts, 0.0), got(pts, 0.0);
      cmtbone::kernels::grad_backend(Backend::kScalar, dir, d.data(),
                                     u.data(), ref.data(), n, nel);
      cmtbone::kernels::grad_backend(Backend::kScalar, dir, ad.data(),
                                     au.data(), mag.data(), n, nel);
      for (Backend b : cmtbone::kernels::all_backends()) {
        if (b == Backend::kScalar) continue;
        std::fill(got.begin(), got.end(), -5.0);
        cmtbone::kernels::grad_backend(b, dir, d.data(), u.data(), got.data(),
                                       n, nel);
        for (std::size_t p = 0; p < pts; ++p) {
          if (cmtbone::kernels::backend_bit_identical(b)) {
            ASSERT_EQ(ref[p], got[p])
                << cmtbone::kernels::backend_name(b) << " n=" << n
                << " dir=" << dir << " point=" << p;
          } else {
            ASSERT_LE(std::fabs(got[p] - ref[p]),
                      2.0 * n * DBL_EPSILON * mag[p] + 1e-300)
                << cmtbone::kernels::backend_name(b) << " n=" << n
                << " dir=" << dir << " point=" << p;
          }
        }
      }
    }
  }
}

TEST(DispatchParity, TensorApplyBitIdenticalUnderEveryBitExactBackend) {
  // tensor_apply3 routes its contractions through dispatch_mxm; each
  // bit-exact backend must leave interpolation results untouched at the bit
  // level (this path feeds the golden-checked dealiased physics).
  for (int n : {4, 8}) {
    auto op = cmtbone::sem::Operators::build(n);
    const int m = op.m;
    auto u = random_vec(std::size_t(n) * n * n, 60u + n);
    std::vector<double> fine(std::size_t(m) * m * m, 0.0);
    std::vector<double> work(cmtbone::kernels::tensor_work_size(m, m));
    cmtbone::kernels::tensor_apply3(op.interp.data(), op.interp_t.data(), m, n,
                                    u.data(), fine.data(), work.data(),
                                    Backend::kScalar);
    const std::vector<double> want = fine;
    for (Backend b : cmtbone::kernels::all_backends()) {
      if (b == Backend::kScalar || !cmtbone::kernels::backend_bit_identical(b)) {
        continue;
      }
      std::fill(fine.begin(), fine.end(), -9.0);
      cmtbone::kernels::tensor_apply3(op.interp.data(), op.interp_t.data(), m,
                                      n, u.data(), fine.data(), work.data(), b);
      for (std::size_t p = 0; p < fine.size(); ++p) {
        ASSERT_EQ(want[p], fine[p]) << cmtbone::kernels::backend_name(b)
                                    << " n=" << n << " point=" << p;
      }
    }
  }
}

}  // namespace

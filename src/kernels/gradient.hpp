#pragma once
// Partial-derivative kernels dudr / duds / dudt and their loop-transformation
// variants — the subject of the paper's Section V optimization study.
//
// For a field u(i,j,k) of N^3 GLL values per element (column-major, i
// fastest) and the N x N derivative matrix D:
//
//   dudr(i,j,k) = sum_l D(i,l) u(l,j,k)     (contraction over the 1st index)
//   duds(i,j,k) = sum_l D(j,l) u(i,l,k)     (contraction over the 2nd index)
//   dudt(i,j,k) = sum_l D(k,l) u(i,j,l)     (contraction over the 3rd index)
//
// Each is an O(N^4) operation per element. The paper reports that the
// CMT-bone kernels (inherited from Nek5000) fully unroll the innermost loop
// for all three derivatives and fuse the two outermost loops for the r- and
// t-derivatives; duds's access pattern forbids fusion. The variants here
// implement exactly those transformations so the Fig. 5 / Fig. 6 comparison
// can be regenerated:
//
//   kBasic          plain triple loop + inner contraction, no transformations
//   kFused          outer loops fused (r: over jk; t: over ij); duds = basic
//   kUnrolled       inner contraction fully unrolled (compile-time N)
//   kFusedUnrolled  both — the production CMT-bone / Nek5000 form
//   kDispatch       routed through the backend-dispatch layer
//                   (kernels/dispatch.hpp) under its default backend,
//                   batched: bit-identical to kBasic. (core::Driver runs
//                   its own Config::kernel_backend instead.)

#include <string>
#include <vector>

namespace cmtbone::kernels {

enum class GradVariant {
  kBasic,
  kFused,
  kUnrolled,
  kFusedUnrolled,
  // 4 and 5 belonged to retired variants (cache-blocked and mxm-fixed).
  // The value stays so that anything keyed by it, such as parameterized
  // test names, does not shift.
  kDispatch = 6,
};

const char* variant_name(GradVariant v);
/// All variants, in declaration order (for sweeps).
const std::vector<GradVariant>& all_variants();

/// One derivative over `nel` elements. `d` is the N x N derivative matrix,
/// `u` the input field (N^3 * nel), `out` the derivative field (same size).
void grad_r(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel);
void grad_s(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel);
void grad_t(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel);

/// All three derivatives of one field (the flux-divergence building block).
void grad3(GradVariant v, const double* d, const double* u, double* ur,
           double* us, double* ut, int n, int nel);

/// Flops of one directional derivative over nel elements: 2 N^4 nel.
inline long long grad_flops(int n, int nel) {
  return 2LL * n * n * n * n * nel;
}

/// Minimal main-memory bytes of one directional derivative over nel
/// elements (u read once, out written once; D stays cached) — the byte
/// side of the roofline arithmetic intensity.
inline long long grad_bytes(int n, int nel) {
  return 2LL * 8 * n * n * n * nel;
}

/// Analytic instruction-count model per directional derivative, the stand-in
/// for the paper's PAPI "total instructions" column. Counts floating ops,
/// memory ops and loop-control overhead; the transformation variants differ
/// only in overhead, mirroring why they execute fewer instructions.
long long grad_instruction_estimate(GradVariant v, int n, int nel);

}  // namespace cmtbone::kernels

#pragma once
// Small-matrix multiply, the workhorse of the spectral element solver.
//
// Nek5000's `mxm(a,n1,b,n2,c,n3)` computes C = A*B for column-major
// matrices A(n1,n2), B(n2,n3), C(n1,n3) (paper §IV-V). The dispatch layer
// (kernels/dispatch.hpp) hands out MxmFixedFn contractions for the
// derivative and dealiasing kernels; the dealiasing interpolation
// (kernels/tensor.hpp) falls back to mxm() when it hands out none.

#include <cstddef>

namespace cmtbone::kernels {

/// C(n1,n3) = A(n1,n2) * B(n2,n3), column-major, C overwritten.
void mxm(const double* a, int n1, const double* b, int n2, double* c, int n3);

/// Signature of a contraction kernel with its length n2 fixed at compile
/// time: (a, n1, b, c, n3), same contract as mxm() otherwise. Every SIMD
/// kernel the dispatch layer hands out (kernels/dispatch.hpp) has this type.
using MxmFixedFn = void (*)(const double*, int, const double*, double*, int);

/// Flop count of one mxm call (multiplies + adds).
inline long long mxm_flops(int n1, int n2, int n3) {
  return 2LL * n1 * n2 * n3;
}

}  // namespace cmtbone::kernels

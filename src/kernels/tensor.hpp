#pragma once
// Tensor-product operator application: apply a 1-D matrix along each of the
// three coordinate directions of an (n,n,n) element.
//
// This is the dealiasing path the paper describes ("an element is first
// mapped to a finer mesh and later mapped back") and the building block of
// the Nekbone stiffness operator.

#include <cstddef>

#include "kernels/dispatch.hpp"

namespace cmtbone::kernels {

/// out(a,b,c) = sum_{i,j,k} A(a,i) A(b,j) A(c,k) u(i,j,k).
/// `a` is m x n column-major, `at` its transpose (n x m). `work` must hold
/// at least m*n*n + m*m*n doubles. The contractions run under backend `b`.
void tensor_apply3(const double* a, const double* at, int m, int n,
                   const double* u, double* out, double* work,
                   Backend b = kDefaultBackend);

/// Workspace size for tensor_apply3.
inline std::size_t tensor_work_size(int m, int n) {
  return std::size_t(m) * n * n + std::size_t(m) * m * n;
}

/// Round-trip dealias: interpolate an element to the fine mesh (m points per
/// direction), then project back with the transpose pair. With interp/interp_t
/// from sem::Operators this reproduces the dealiasing reference-element
/// traffic. `fine` holds m^3 doubles, `work` tensor_work_size(max(m,n), ...).
void dealias_roundtrip(const double* interp, const double* interp_t, int m,
                       int n, const double* u, double* fine, double* back,
                       double* work, Backend b = kDefaultBackend);

}  // namespace cmtbone::kernels

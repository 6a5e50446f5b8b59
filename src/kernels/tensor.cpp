#include "kernels/tensor.hpp"

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

void tensor_apply3(const double* a, const double* at, int m, int n,
                   const double* u, double* out, double* work, Backend b) {
  double* t1 = work;                                 // (m, n, n)
  double* t2 = work + std::size_t(m) * n * n;        // (m, m, n)

  // Every direction contracts over n, so one backend-dispatch lookup
  // selects the kernel for the whole application (runtime fallback for
  // unspecialized sizes or the scalar backend; results are bit-identical
  // either way under every bit-exact backend — see kernels/dispatch.hpp).
  if (MxmFixedFn f = dispatch_mxm(n, b)) {
    f(a, m, u, t1, n * n);
    for (int k = 0; k < n; ++k) {
      f(t1 + std::size_t(k) * m * n, m, at, t2 + std::size_t(k) * m * m, m);
    }
    f(t2, m * m, at, out, m);
    return;
  }

  // Direction 1: t1(a,j,k) = sum_i A(a,i) u(i,j,k)  ==  A * U(n, n^2).
  mxm(a, m, u, n, t1, n * n);

  // Direction 2: per k-slab, t2(.,.,k) = t1(.,.,k) * A^T.
  for (int k = 0; k < n; ++k) {
    mxm(t1 + std::size_t(k) * m * n, m, at, n, t2 + std::size_t(k) * m * m, m);
  }

  // Direction 3: out(ab, c) = sum_k t2(ab, k) A(c,k)  ==  T2(m^2, n) * A^T.
  mxm(t2, m * m, at, n, out, m);
}

void dealias_roundtrip(const double* interp, const double* interp_t, int m,
                       int n, const double* u, double* fine, double* back,
                       double* work, Backend b) {
  tensor_apply3(interp, interp_t, m, n, u, fine, work, b);
  tensor_apply3(interp_t, interp, n, m, fine, back, work, b);
}

}  // namespace cmtbone::kernels

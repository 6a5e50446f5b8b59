#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

// Column-major C(i,j) = sum_l A(i,l) B(l,j). The j-l-i ordering streams
// unit-stride through A's columns and C's columns, which vectorizes well
// for the small N (5..25) this library cares about.

void mxm(const double* a, int n1, const double* b, int n2, double* c, int n3) {
  for (int j = 0; j < n3; ++j) {
    double* __restrict cj = c + std::size_t(j) * n1;
    for (int i = 0; i < n1; ++i) cj[i] = 0.0;
    const double* bj = b + std::size_t(j) * n2;
    for (int l = 0; l < n2; ++l) {
      const double blj = bj[l];
      const double* __restrict al = a + std::size_t(l) * n1;
      for (int i = 0; i < n1; ++i) cj[i] += al[i] * blj;
    }
  }
}

}  // namespace cmtbone::kernels

#include "kernels/dispatch.hpp"

#include "kernels/gradient.hpp"
#include "kernels/simd_backend.hpp"

namespace cmtbone::kernels {

// ---- ISA backends -----------------------------------------------------------

const SimdBackend* simd_backend_portable() {
  return detail::simd_table_portable();
}

const SimdBackend* simd_backend_avx2() {
#if defined(CMTBONE_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (ok) return detail::simd_table_avx2();
#endif
  return nullptr;
}

const SimdBackend* simd_backend_avx512() {
#if defined(CMTBONE_HAVE_AVX512_TU) && \
    (defined(__x86_64__) || defined(__i386__))
  static const bool ok = __builtin_cpu_supports("avx512f");
  if (ok) return detail::simd_table_avx512();
#endif
  return nullptr;
}

const SimdBackend* simd_backend_best() {
  if (const SimdBackend* b = simd_backend_avx512()) return b;
  if (const SimdBackend* b = simd_backend_avx2()) return b;
  return simd_backend_portable();
}

const char* isa_name() { return simd_backend_best()->name; }

// ---- names ------------------------------------------------------------------

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kSimdFma: return "simd-fma";
    case Backend::kBatched: return "batched";
  }
  return "?";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> v = {Backend::kScalar, Backend::kSimdFma,
                                         Backend::kBatched};
  return v;
}

bool backend_bit_identical(Backend b) { return b != Backend::kSimdFma; }

// ---- kernel entry points ----------------------------------------------------

namespace {

MxmFixedFn simd_mxm_or_null(int n2, bool fma) {
  return simd_backend_best()->mxm_kernel(n2, fma);
}

}  // namespace

MxmFixedFn dispatch_mxm(int n2, Backend b) {
  switch (b) {
    case Backend::kScalar: return nullptr;
    case Backend::kSimdFma: return simd_mxm_or_null(n2, true);
    // Batching is a gradient-level layout trick; for a lone mxm the
    // batched backend is the plain SIMD kernel.
    case Backend::kBatched: return simd_mxm_or_null(n2, false);
  }
  return nullptr;
}

namespace {

// D^T staging shared by the s/t directions (they contract against rows of
// D, i.e. right-multiply by D^T), built once per field call.
struct DTranspose {
  double stack[32 * 32];
  std::vector<double> heap;
  const double* build(const double* d, int n) {
    double* dt = stack;
    if (n > 32) {
      heap.resize(std::size_t(n) * n);
      dt = heap.data();
    }
    for (int l = 0; l < n; ++l) {
      for (int j = 0; j < n; ++j) {
        dt[l + std::size_t(n) * j] = d[j + std::size_t(n) * l];
      }
    }
    return dt;
  }
};

// The gradient contraction shapes, shared by every non-scalar backend:
// r: out = D * U over all elements at once (U viewed as N x N^2*nel; each
// output column is independent, so the merge is bit-preserving);
// s: per k-slab, out_k = U_k * D^T; t: per element, out = U * D^T.
// Per output entry the accumulation runs over l ascending, exactly like
// the basic loops.
void grad_mxm(MxmFixedFn f, int dir, const double* d, const double* u,
              double* out, int n, int nel) {
  const std::size_t stride = std::size_t(n) * n * n;
  const std::size_t n2 = std::size_t(n) * n;
  if (dir == 0) {
    f(d, n, u, out, int(n2) * nel);
    return;
  }
  DTranspose tr;
  const double* dt = tr.build(d, n);
  if (dir == 1) {
    for (int e = 0; e < nel; ++e) {
      for (int k = 0; k < n; ++k) {
        f(u + e * stride + k * n2, n, dt, out + e * stride + k * n2, n);
      }
    }
  } else {
    for (int e = 0; e < nel; ++e) {
      f(u + e * stride, int(n2), dt, out + e * stride, n);
    }
  }
}

void grad_basic(int dir, const double* d, const double* u, double* out,
                int n, int nel) {
  GradVariant v = GradVariant::kBasic;
  if (dir == 0) grad_r(v, d, u, out, n, nel);
  if (dir == 1) grad_s(v, d, u, out, n, nel);
  if (dir == 2) grad_t(v, d, u, out, n, nel);
}

// Outside the SIMD tables' range the basic loops take over — bit-identical
// either way for the bit-exact backend.
void grad_simd(bool fma, int dir, const double* d, const double* u,
               double* out, int n, int nel) {
  if (MxmFixedFn f = simd_mxm_or_null(n, fma)) {
    grad_mxm(f, dir, d, u, out, n, nel);
  } else {
    grad_basic(dir, d, u, out, n, nel);
  }
}

}  // namespace

void grad_backend(Backend b, int dir, const double* d, const double* u,
                  double* out, int n, int nel) {
  switch (b) {
    case Backend::kScalar:
      grad_basic(dir, d, u, out, n, nel);
      return;
    case Backend::kSimdFma:
      grad_simd(true, dir, d, u, out, n, nel);
      return;
    case Backend::kBatched:
      grad_simd(false, dir, d, u, out, n, nel);
      return;
  }
}

void grad_dispatch(int dir, const double* d, const double* u, double* out,
                   int n, int nel) {
  grad_backend(kDefaultBackend, dir, d, u, out, n, nel);
}

}  // namespace cmtbone::kernels

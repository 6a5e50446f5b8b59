// Register-blocked SIMD mxm kernel body, compiled once per instruction-set
// translation unit (see simd_backend.hpp for the multi-TU scheme and the
// accumulation-order policy). The including TU must define, BEFORE the
// include:
//
//   CMTBONE_SIMD_NS      unique namespace for this TU (ODR isolation)
//   CMTBONE_SIMD_NAME    backend name string
//   CMTBONE_SIMD_MAXW    widest vector width in doubles: 2, 4, or 8
//   CMTBONE_SIMD_HW_FMA  1 when the TU's ISA flags include hardware FMA
//
// and must be compiled with -ffp-contract=off: the fma=false kernels spell
// the accumulation as separate multiply and add, and contraction into an
// FMA would silently change their rounding and break bit-parity with the
// scalar reference. The fma=true kernels request fusion explicitly.
//
// No include guard on purpose: each TU includes this exactly once inside
// its own macro configuration.

#include <chrono>
#include <cstddef>
#include <cstring>

#include "kernels/simd_backend.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cmtbone::kernels {
namespace CMTBONE_SIMD_NS {

// GCC/Clang generic vectors: W-wide double arithmetic at any W on any
// target — widths beyond the hardware are double-pumped by the compiler.
// Loads and stores go through memcpy, which lowers to unaligned vector
// moves; kernel extents are arbitrary so no alignment is assumed.
template <int W>
struct Vec {
  typedef double V __attribute__((vector_size(W * 8)));
  V v;

  static Vec load(const double* p) {
    Vec r;
    __builtin_memcpy(&r.v, p, sizeof(V));
    return r;
  }
  void store(double* p) const { __builtin_memcpy(p, &v, sizeof(V)); }
  static Vec zero() { return Vec{V{}}; }
  static Vec bcast(double x) { return Vec{V{} + x}; }
};

// mac<false>: c + a*b with two roundings — the scalar-reference order.
// mac<true>: one fused multiply-add (single rounding). Hardware intrinsics
// where the TU's ISA provides them; otherwise per-lane __builtin_fma, which
// is correctly rounded but slow (libm) — a correctness path that only the
// simd-fma backend reaches.
template <bool Fma, int W>
inline Vec<W> mac(Vec<W> a, Vec<W> b, Vec<W> c) {
  if constexpr (!Fma) {
    return Vec<W>{c.v + a.v * b.v};
  } else {
#if defined(__AVX512F__)
    if constexpr (W == 8) {
      return Vec<8>{(typename Vec<8>::V)_mm512_fmadd_pd(
          (__m512d)a.v, (__m512d)b.v, (__m512d)c.v)};
    }
#endif
#if defined(__FMA__)
    if constexpr (W == 4) {
      return Vec<4>{(typename Vec<4>::V)_mm256_fmadd_pd(
          (__m256d)a.v, (__m256d)b.v, (__m256d)c.v)};
    }
    if constexpr (W == 2) {
      return Vec<2>{(typename Vec<2>::V)_mm_fmadd_pd((__m128d)a.v, (__m128d)b.v,
                                                     (__m128d)c.v)};
    }
#endif
    Vec<W> r;
    for (int i = 0; i < W; ++i) {
      r.v[i] = __builtin_fma(a.v[i], b.v[i], c.v[i]);
    }
    return r;
  }
}

// Rows [i0, i0 + floor((n1-i0)/W)*W) of C, W rows per vector, with a 4-wide
// column block so four C columns accumulate per sweep over A — the l loop
// is the only loop carrying the accumulation and it runs ascending, per the
// policy. Returns the first row not covered.
template <int W, bool Fma, int N2>
int mxm_rows(const double* __restrict a, int n1, const double* __restrict b,
             double* __restrict c, int n3, int i0) {
  using V = Vec<W>;
  for (; i0 + W <= n1; i0 += W) {
    const double* ai = a + i0;
    int j = 0;
    for (; j + 4 <= n3; j += 4) {
      const double* __restrict b0 = b + std::size_t(j) * N2;
      V s0 = V::zero(), s1 = V::zero(), s2 = V::zero(), s3 = V::zero();
#pragma GCC unroll 32
      for (int l = 0; l < N2; ++l) {
        const V av = V::load(ai + std::size_t(l) * n1);
        s0 = mac<Fma>(av, V::bcast(b0[l]), s0);
        s1 = mac<Fma>(av, V::bcast(b0[N2 + l]), s1);
        s2 = mac<Fma>(av, V::bcast(b0[2 * N2 + l]), s2);
        s3 = mac<Fma>(av, V::bcast(b0[3 * N2 + l]), s3);
      }
      double* cj = c + std::size_t(j) * n1 + i0;
      s0.store(cj);
      s1.store(cj + n1);
      s2.store(cj + 2 * std::size_t(n1));
      s3.store(cj + 3 * std::size_t(n1));
    }
    for (; j < n3; ++j) {
      const double* __restrict bj = b + std::size_t(j) * N2;
      V s = V::zero();
#pragma GCC unroll 32
      for (int l = 0; l < N2; ++l) {
        s = mac<Fma>(V::load(ai + std::size_t(l) * n1), V::bcast(bj[l]), s);
      }
      s.store(c + std::size_t(j) * n1 + i0);
    }
  }
  return i0;
}

// Leftover rows, scalar — same l-ascending order, so still bit-identical
// (fma=false) or single-rounding-per-step (fma=true).
template <bool Fma, int N2>
void mxm_tail(const double* __restrict a, int n1, const double* __restrict b,
              double* __restrict c, int n3, int i0) {
  for (int j = 0; j < n3; ++j) {
    const double* __restrict bj = b + std::size_t(j) * N2;
    for (int i = i0; i < n1; ++i) {
      double s = 0.0;
#pragma GCC unroll 32
      for (int l = 0; l < N2; ++l) {
        if constexpr (Fma) {
          s = __builtin_fma(a[std::size_t(l) * n1 + i], bj[l], s);
        } else {
          s += a[std::size_t(l) * n1 + i] * bj[l];
        }
      }
      c[std::size_t(j) * n1 + i] = s;
    }
  }
}

/// C(n1,n3) = A(n1,N2) * B(N2,n3), column-major. Row cascade: full-width
/// vectors first, then narrower, then a scalar tail, so odd n1 (the common
/// case — n1 is N or N^2 for odd N) keeps most rows vectorized.
template <bool Fma, int N2>
void mxm_simd(const double* a, int n1, const double* b, double* c, int n3) {
  int i = 0;
#if CMTBONE_SIMD_MAXW >= 8
  i = mxm_rows<8, Fma, N2>(a, n1, b, c, n3, i);
#endif
#if CMTBONE_SIMD_MAXW >= 4
  i = mxm_rows<4, Fma, N2>(a, n1, b, c, n3, i);
#endif
  i = mxm_rows<2, Fma, N2>(a, n1, b, c, n3, i);
  if (i < n1) mxm_tail<Fma, N2>(a, n1, b, c, n3, i);
}

MxmFixedFn mxm_kernel(int n2, bool fma) {
  switch (n2) {
#define CMTBONE_CASE(N) \
  case N: return fma ? &mxm_simd<true, N> : &mxm_simd<false, N>;
    CMTBONE_CASE(2)
    CMTBONE_CASE(3)
    CMTBONE_CASE(4)
    CMTBONE_CASE(5)
    CMTBONE_CASE(6)
    CMTBONE_CASE(7)
    CMTBONE_CASE(8)
    CMTBONE_CASE(9)
    CMTBONE_CASE(10)
    CMTBONE_CASE(11)
    CMTBONE_CASE(12)
    CMTBONE_CASE(13)
    CMTBONE_CASE(14)
    CMTBONE_CASE(15)
    CMTBONE_CASE(16)
    CMTBONE_CASE(17)
    CMTBONE_CASE(18)
    CMTBONE_CASE(19)
    CMTBONE_CASE(20)
    CMTBONE_CASE(21)
    CMTBONE_CASE(22)
    CMTBONE_CASE(23)
    CMTBONE_CASE(24)
    CMTBONE_CASE(25)
#undef CMTBONE_CASE
    default: return nullptr;
  }
}

// Compute-roof probe: eight independent W-wide multiply-add chains, enough
// to cover FMA latency on two issue ports, register-resident. Reports the
// best of three short samples as GFLOP/s (2 flops per multiply-add, fused
// or not).
double measure_peak_gflops() {
  constexpr int W = CMTBONE_SIMD_MAXW;
  constexpr bool kFma = CMTBONE_SIMD_HW_FMA != 0;
  using V = Vec<W>;
  const V a = V::bcast(1.0 + 1e-9);
  const V b = V::bcast(1.0 - 1e-9);
  V acc[8];
  for (int u = 0; u < 8; ++u) acc[u] = V::bcast(1e-6 * (u + 1));
  constexpr long kIters = 1L << 20;
  double best = 0.0;
  double sink = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long it = 0; it < kIters; ++it) {
#pragma GCC unroll 8
      for (int u = 0; u < 8; ++u) acc[u] = mac<kFma>(a, b, acc[u]);
    }
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double flops = double(kIters) * 8.0 * W * 2.0;
    if (sec > 0.0) best = best > flops / sec ? best : flops / sec;
  }
  // Consume the accumulators through a volatile so the chains cannot be
  // elided, without taking their address (which would demote them from
  // registers to a stack slot inside the timed loop).
  for (int u = 0; u < 8; ++u) {
    for (int lane = 0; lane < W; ++lane) sink += acc[u].v[lane];
  }
  static volatile double g_probe_sink;
  g_probe_sink = sink;
  (void)g_probe_sink;
  return best / 1e9;
}

const SimdBackend* backend_table() {
  static const SimdBackend table = {
      CMTBONE_SIMD_NAME, CMTBONE_SIMD_MAXW, &mxm_kernel, &measure_peak_gflops};
  return &table;
}

}  // namespace CMTBONE_SIMD_NS
}  // namespace cmtbone::kernels

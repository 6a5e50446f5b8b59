#pragma once
// Explicit-SIMD mxm backends, one per instruction set, selected at runtime.
//
// The project's baseline flags (-O2, no -march) cap the autovectorizer at
// SSE2. To use the wide units that the paper's contraction sizes (N=5..25)
// can feed, one register-blocked kernel body (simd_kernels.inc.hpp) is
// compiled into three translation units with different ISA flags:
//
//   simd_portable.cpp   baseline flags       2-wide vectors (SSE2 on x86)
//   simd_avx2.cpp       -mavx2 -mfma         4-wide (compiled only if the
//                                            compiler supports the flag)
//   simd_avx512.cpp     -mavx512f            8-wide (likewise)
//
// Each TU wraps the shared body in its own namespace so the three copies
// have distinct mangled names — with identical names the linker would keep
// one copy of any inline helper and silently run, say, AVX-512 code on an
// AVX2-selected path (the classic multi-ISA ODR trap). The dispatch layer
// (dispatch.hpp) checks CPU support with __builtin_cpu_supports before
// handing out an ISA backend; the portable backend always exists.
//
// Accumulation-order policy (shared with mxm): every C entry
// accumulates over l ascending from zero; SIMD parallelism is only across
// output rows (i), never across the contraction. The fma=false kernels
// round each multiply and each add separately (the TUs are compiled with
// -ffp-contract=off so the compiler cannot fuse them) and are therefore
// bit-identical to the scalar reference. The fma=true kernels keep the same
// order but contract each step into one fused multiply-add — a single
// rounding per step, so results differ from scalar by a bounded ULP count
// yet are still deterministic run-to-run and across thread counts.

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

/// One compiled-in SIMD instruction-set backend.
struct SimdBackend {
  const char* name;  // "portable" | "avx2" | "avx512"
  int width;         // doubles per vector register the TU targets
  /// Kernel for contraction length n2 in [2,25]; nullptr outside that
  /// range. Signature matches MxmFixedFn: (a, n1, b, c, n3) with n2 baked
  /// in. fma selects the fused-multiply-add flavor (see policy above).
  MxmFixedFn (*mxm_kernel)(int n2, bool fma);
  /// Measured register-resident multiply-add throughput in GFLOP/s — the
  /// compute roof for this backend on this machine (used by prof's
  /// roofline). Runs a short (~ms) probe on every call.
  double (*measure_peak_gflops)();
};

/// Always available; compiled with the project's baseline flags.
const SimdBackend* simd_backend_portable();
/// Compiled-in AND supported by this CPU, else nullptr.
const SimdBackend* simd_backend_avx2();
const SimdBackend* simd_backend_avx512();
/// Widest backend that is compiled in and runnable on this CPU.
const SimdBackend* simd_backend_best();

namespace detail {
// Raw per-TU tables; use the checked getters above, which gate on runtime
// CPU support. Declarations exist unconditionally; the ISA definitions are
// only linked when CMake compiles the matching TU.
const SimdBackend* simd_table_portable();
const SimdBackend* simd_table_avx2();
const SimdBackend* simd_table_avx512();
}  // namespace detail

}  // namespace cmtbone::kernels

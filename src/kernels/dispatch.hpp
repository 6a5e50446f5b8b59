#pragma once
// Unified kernel-backend dispatch: scalar, SIMD+FMA, and element-batched
// SIMD variants of the solver's tensor contractions behind one call site.
//
// The backend is a per-run value, never process state: core::Driver hands
// its Config::kernel_backend to every contraction it makes, and code that
// runs outside a Driver (GradVariant::kDispatch, Nekbone) uses
// kDefaultBackend, kBatched — the fastest bit-exact choice on every machine
// we have measured. Two runs in one process therefore never see each
// other's kernels or bits.
//
// Every non-scalar backend contracts the r-direction of all elements in
// one kernel call and the s/t directions per element against a D^T staged
// once per field call. Backends degrade, never abort: every compiled SIMD
// table (the portable one always exists) covers n ∈ [2,25]; outside that
// range dispatch falls back to the basic loops, which keep the scalar
// accumulation order, so results stay bit-identical to the reference.
//
// Accumulation-order policy (documented in full in simd_backend.hpp and
// DESIGN.md): every backend except kSimdFma reproduces the scalar
// reference bit for bit; kSimdFma keeps the same accumulation order but
// fuses each multiply-add into a single rounding — deterministic
// run-to-run and across thread counts, ULP-bounded against scalar.

#include <vector>

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

enum class Backend {
  kScalar,   // runtime-N loops (kernels::mxm / basic gradients)
  kSimdFma,  // batched vector kernels with fused multiply-add
  kBatched,  // batched vector kernels, mul+add kept separate (bit-exact)
};

inline constexpr int kNumBackends = 3;
/// The backend of every contraction made outside a Driver, and the default
/// of core::Config::kernel_backend.
inline constexpr Backend kDefaultBackend = Backend::kBatched;
inline constexpr int kMinDispatchN = 2;
inline constexpr int kMaxDispatchN = 25;

const char* backend_name(Backend b);
/// All backends in declaration order (for sweeps and tests).
const std::vector<Backend>& all_backends();

/// True when the backend preserves the scalar accumulation contract and is
/// therefore bit-identical to kScalar; false only for kSimdFma.
bool backend_bit_identical(Backend b);

/// Name of the widest SIMD instruction set dispatch will actually use on
/// this machine ("avx512" | "avx2" | "portable") — compiled-in AND
/// CPU-supported.
const char* isa_name();

/// The backend code outside a Driver runs at contraction length n:
/// kDefaultBackend at every n.
inline Backend selected_backend(int /*n*/) { return kDefaultBackend; }

// ---- kernel entry points ----------------------------------------------------

/// Contraction kernel for length n2 under backend b, or nullptr when b is
/// kScalar or n2 is unspecialized — the caller then uses the runtime mxm(),
/// which is the same bit-exact result.
MxmFixedFn dispatch_mxm(int n2, Backend b);

/// One directional derivative (dir: 0 = r, 1 = s, 2 = t) over nel elements
/// under an explicit backend. Same contract as grad_r/s/t.
void grad_backend(Backend b, int dir, const double* d, const double* u,
                  double* out, int n, int nel);

/// Same, under kDefaultBackend (this is what GradVariant::kDispatch routes
/// to).
void grad_dispatch(int dir, const double* d, const double* u, double* out,
                   int n, int nel);

}  // namespace cmtbone::kernels

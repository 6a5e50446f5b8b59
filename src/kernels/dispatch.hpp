#pragma once
// Unified kernel-backend dispatch: scalar, SIMD+FMA, and element-batched
// SIMD variants of the solver's tensor contractions behind one call site,
// selectable at runtime.
//
// Selection is two-level:
//
//   1. forced backend — set_forced_backend() or, once at first use, the
//      CMTBONE_KERNEL_BACKEND environment variable (scalar | simd-fma |
//      batched; any other value, including the retired "simd" and
//      "fixed-n", is warned about and ignored)
//   2. default: kBatched (the widest compiled-in, CPU-supported SIMD ISA
//      with element batching — the fastest bit-exact choice on every
//      machine we have measured)
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

#include <optional>
#include <string_view>
#include <vector>

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

enum class Backend {
  kScalar,   // runtime-N loops (kernels::mxm / basic gradients)
  kSimdFma,  // batched vector kernels with fused multiply-add
  kBatched,  // batched vector kernels, mul+add kept separate (bit-exact)
};

inline constexpr int kNumBackends = 3;
inline constexpr int kMinDispatchN = 2;
inline constexpr int kMaxDispatchN = 25;

const char* backend_name(Backend b);
/// Parse "scalar" | "simd-fma" | "batched"; nullopt on anything else.
std::optional<Backend> backend_from_name(std::string_view name);
/// All backends in declaration order (for sweeps and tests).
const std::vector<Backend>& all_backends();

/// True when the backend preserves the scalar accumulation contract and is
/// therefore bit-identical to kScalar; false only for kSimdFma.
bool backend_bit_identical(Backend b);

/// Name of the widest SIMD instruction set dispatch will actually use on
/// this machine ("avx512" | "avx2" | "portable") — compiled-in AND
/// CPU-supported.
const char* isa_name();

// ---- selection --------------------------------------------------------------

/// Override the default process-wide (nullopt clears).
/// Thread-safe; kernels already in flight finish on their old choice.
/// Once the environment has been read, reading the selection costs one
/// acquire load (no lock).
void set_forced_backend(std::optional<Backend> b);
std::optional<Backend> forced_backend();

/// The backend dispatch will use for contraction length n right now: the
/// force if one is set, else kBatched. The choice does not depend on n.
Backend selected_backend(int n);

/// RAII force for tests and benches: forces `b` on construction, restores
/// the previous force state on destruction.
class ScopedBackendForce {
 public:
  explicit ScopedBackendForce(std::optional<Backend> b)
      : prev_(forced_backend()) {
    set_forced_backend(b);
  }
  ~ScopedBackendForce() { set_forced_backend(prev_); }
  ScopedBackendForce(const ScopedBackendForce&) = delete;
  ScopedBackendForce& operator=(const ScopedBackendForce&) = delete;

 private:
  std::optional<Backend> prev_;
};

// ---- kernel entry points ----------------------------------------------------

/// Contraction kernel for length n2 under the currently selected backend,
/// or nullptr when the selection is kScalar or n2 is unspecialized — the
/// caller then uses the runtime mxm(), which is the same bit-exact result.
MxmFixedFn dispatch_mxm(int n2);

/// One directional derivative (dir: 0 = r, 1 = s, 2 = t) over nel elements
/// under an explicit backend. Same contract as grad_r/s/t.
void grad_backend(Backend b, int dir, const double* d, const double* u,
                  double* out, int n, int nel);

/// Same, under the current selection (this is what GradVariant::kDispatch
/// routes to).
void grad_dispatch(int dir, const double* d, const double* u, double* out,
                   int n, int nel);

/// Environment knob (read once, at first selection): a backend name here
/// forces that backend.
inline constexpr const char* kBackendEnvVar = "CMTBONE_KERNEL_BACKEND";

/// Re-read the environment knob (tests use this after setenv; normal code
/// never needs it). Clears any programmatic force first.
void reload_env_selection();

}  // namespace cmtbone::kernels

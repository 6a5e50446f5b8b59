#pragma once
// Unified kernel-backend dispatch: scalar, fixed-N, SIMD+FMA, and
// element-batched SIMD variants of the solver's tensor contractions behind
// one call site, selectable at runtime.
//
// Selection precedence, checked per contraction length n:
//
//   1. forced backend — set_forced_backend() or, once at first use, the
//      CMTBONE_KERNEL_BACKEND environment variable (scalar | fixed-n |
//      simd-fma | batched; any other value is warned about and ignored)
//   2. applied tuning table (apply_tune_table / ensure_tuned) — best
//      measured backend per n
//   3. default: kBatched (the widest compiled-in, CPU-supported SIMD ISA
//      with element batching — the fastest choice on every machine we have
//      measured; falls back gracefully, see below)
//
// Every non-scalar backend contracts the r-direction of all elements in
// one kernel call and the s/t directions per element against a D^T staged
// once per field call. Backends degrade, never abort: outside the specialized
// range n ∈ [2,25], or when no SIMD TU for the selected ISA is compiled in,
// dispatch falls back (SIMD → fixed-N → scalar) while preserving the scalar
// accumulation order, so results stay bit-identical to the reference.
//
// Accumulation-order policy (documented in full in simd_backend.hpp and
// DESIGN.md): every backend except kSimdFma reproduces the scalar
// reference bit for bit; kSimdFma keeps the same accumulation order but
// fuses each multiply-add into a single rounding — deterministic
// run-to-run and across thread counts, ULP-bounded against scalar.

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/mxm.hpp"

namespace cmtbone::kernels {

enum class Backend {
  kScalar,   // runtime-N loops (kernels::mxm / basic gradients)
  kFixedN,   // compile-time-N dispatch table (mxm_fixed)
  kSimdFma,  // batched vector kernels with fused multiply-add
  kBatched,  // batched vector kernels, mul+add kept separate (bit-exact)
};

inline constexpr int kNumBackends = 4;
inline constexpr int kMinDispatchN = 2;
inline constexpr int kMaxDispatchN = 25;

const char* backend_name(Backend b);
/// Parse "scalar" | "fixed-n" | "simd-fma" | "batched"; nullopt on
/// anything else.
std::optional<Backend> backend_from_name(std::string_view name);
/// All backends in declaration order (for sweeps and tests).
const std::vector<Backend>& all_backends();

/// True when the backend preserves the scalar accumulation contract and is
/// therefore bit-identical to kScalar; false only for kSimdFma.
bool backend_bit_identical(Backend b);

/// Name of the widest SIMD instruction set dispatch will actually use on
/// this machine ("avx512" | "avx2" | "portable") — compiled-in AND
/// CPU-supported. Tags tuning caches so a table measured elsewhere is
/// rejected here.
const char* isa_name();

// ---- selection --------------------------------------------------------------

/// Override every other selection source process-wide (nullopt clears).
/// Thread-safe; kernels already in flight finish on their old choice.
/// Once the environment has been read, reading the selection costs one
/// acquire load (no lock).
void set_forced_backend(std::optional<Backend> b);
std::optional<Backend> forced_backend();

/// The backend dispatch will use for contraction length n right now.
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

// ---- autotuning -------------------------------------------------------------

struct TuneEntry {
  int n = 0;
  Backend best = Backend::kBatched;
  /// Measured seconds per sweep, indexed by Backend declaration order.
  std::array<double, kNumBackends> seconds{};
};

struct TuneTable {
  std::string isa;  // isa_name() at measurement time
  std::vector<TuneEntry> entries;
};

/// Measure every backend on a gradient-shaped workload for each n; returns
/// the table (does not install it).
TuneTable autotune(const std::vector<int>& ns);

/// Install / clear the per-n selection used at precedence level 2.
void apply_tune_table(const TuneTable& table);
void clear_tune_table();

/// Text round-trip. parse_tune_table validates magic, version, ISA (must
/// match this machine), the backend list (staleness guard against future
/// backend-set changes), every entry, and the closing "end <count>" line
/// (a file cut short anywhere, as a torn write leaves it, is incomplete);
/// any anomaly yields nullopt so callers re-tune instead of trusting a bad
/// cache.
std::string serialize_tune_table(const TuneTable& table);
std::optional<TuneTable> parse_tune_table(std::string_view text);

/// File round-trip; load returns nullopt on unreadable or invalid files,
/// save returns false on I/O failure. Never throws, never aborts.
bool save_tune_cache(const TuneTable& table, const std::string& path);
std::optional<TuneTable> load_tune_cache(const std::string& path);

/// Startup convenience mirroring gs_autotune_sweep: if a forced backend is
/// active (env or programmatic) the cache is ignored and an empty table
/// returns; else a valid cache at `path` is loaded and applied; else the
/// sizes are tuned, applied, and saved to `path` (save skipped when `path`
/// is empty).
TuneTable ensure_tuned(const std::vector<int>& ns, const std::string& path);

/// Environment knobs (read once, at first selection):
///   CMTBONE_KERNEL_BACKEND    backend name → forced backend
///   CMTBONE_KERNEL_AUTOTUNE   "1" → tune n ∈ [2,25] at first use
///   CMTBONE_KERNEL_TUNE_CACHE cache file path for the startup tune
inline constexpr const char* kBackendEnvVar = "CMTBONE_KERNEL_BACKEND";
inline constexpr const char* kAutotuneEnvVar = "CMTBONE_KERNEL_AUTOTUNE";
inline constexpr const char* kTuneCacheEnvVar = "CMTBONE_KERNEL_TUNE_CACHE";

/// Re-read the environment knobs (tests use this after setenv; normal code
/// never needs it). Clears any applied tune table first.
void reload_env_selection();

}  // namespace cmtbone::kernels

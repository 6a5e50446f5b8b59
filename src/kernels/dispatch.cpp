#include "kernels/dispatch.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "kernels/gradient.hpp"
#include "kernels/simd_backend.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

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
    case Backend::kFixedN: return "fixed-n";
    case Backend::kSimdFma: return "simd-fma";
    case Backend::kBatched: return "batched";
  }
  return "?";
}

std::optional<Backend> backend_from_name(std::string_view name) {
  for (Backend b : all_backends()) {
    if (name == backend_name(b)) return b;
  }
  return std::nullopt;
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> v = {Backend::kScalar, Backend::kFixedN,
                                         Backend::kSimdFma, Backend::kBatched};
  return v;
}

bool backend_bit_identical(Backend b) { return b != Backend::kSimdFma; }

// ---- selection state --------------------------------------------------------

namespace {

constexpr int kNoBackend = -1;

struct Selection {
  std::atomic<int> forced{kNoBackend};
  // Per-n tuned choice, kNoBackend when untuned. Index by n directly; the
  // table is tiny.
  std::array<std::atomic<int>, kMaxDispatchN + 1> tuned;
  Selection() {
    for (auto& t : tuned) t.store(kNoBackend, std::memory_order_relaxed);
  }
};

Selection& sel() {
  static Selection s;
  return s;
}

// The environment is read once, under g_env_mu; g_env_done publishes the
// result (release) so that every later selection costs one acquire load
// instead of a lock that all rank threads and pool workers would share.
std::mutex g_env_mu;
std::atomic<bool> g_env_done{false};

// Reads the environment knobs. Called under g_env_mu; must not call the
// public ensure_env()-guarded accessors (re-entrancy).
void init_from_env() {
  Selection& s = sel();
  if (const char* v = std::getenv(kBackendEnvVar)) {
    if (auto b = backend_from_name(v)) {
      s.forced.store(int(*b), std::memory_order_relaxed);
    } else {
      util::log_warn() << "ignoring " << kBackendEnvVar << "=\"" << v
                       << "\" (unknown backend; valid: scalar fixed-n "
                          "simd-fma batched)";
    }
  }
  if (s.forced.load(std::memory_order_relaxed) != kNoBackend) return;
  const char* tune = std::getenv(kAutotuneEnvVar);
  if (tune == nullptr || std::string_view(tune) != "1") return;
  const char* cache = std::getenv(kTuneCacheEnvVar);
  const std::string path = cache ? cache : "";
  std::vector<int> ns;
  for (int n = kMinDispatchN; n <= kMaxDispatchN; ++n) ns.push_back(n);
  if (!path.empty()) {
    if (auto cached = load_tune_cache(path)) {
      apply_tune_table(*cached);
      return;
    }
  }
  TuneTable t = autotune(ns);
  apply_tune_table(t);
  if (!path.empty()) save_tune_cache(t, path);
}

void ensure_env() {
  if (g_env_done.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(g_env_mu);
  if (g_env_done.load(std::memory_order_relaxed)) return;
  init_from_env();
  g_env_done.store(true, std::memory_order_release);
}

}  // namespace

void set_forced_backend(std::optional<Backend> b) {
  ensure_env();
  sel().forced.store(b ? int(*b) : kNoBackend, std::memory_order_relaxed);
}

std::optional<Backend> forced_backend() {
  ensure_env();
  int f = sel().forced.load(std::memory_order_relaxed);
  return f == kNoBackend ? std::nullopt : std::optional<Backend>(Backend(f));
}

Backend selected_backend(int n) {
  ensure_env();
  Selection& s = sel();
  int f = s.forced.load(std::memory_order_relaxed);
  if (f != kNoBackend) return Backend(f);
  if (n >= kMinDispatchN && n <= kMaxDispatchN) {
    int t = s.tuned[n].load(std::memory_order_relaxed);
    if (t != kNoBackend) return Backend(t);
  }
  return Backend::kBatched;
}

void apply_tune_table(const TuneTable& table) {
  Selection& s = sel();
  for (const TuneEntry& e : table.entries) {
    if (e.n >= kMinDispatchN && e.n <= kMaxDispatchN) {
      s.tuned[e.n].store(int(e.best), std::memory_order_relaxed);
    }
  }
}

void clear_tune_table() {
  for (auto& t : sel().tuned) t.store(kNoBackend, std::memory_order_relaxed);
}

void reload_env_selection() {
  std::lock_guard<std::mutex> lock(g_env_mu);
  sel().forced.store(kNoBackend, std::memory_order_relaxed);
  for (auto& t : sel().tuned) t.store(kNoBackend, std::memory_order_relaxed);
  init_from_env();
  g_env_done.store(true, std::memory_order_release);
}

// ---- kernel entry points ----------------------------------------------------

namespace {

MxmFixedFn simd_mxm_or_null(int n2, bool fma) {
  return simd_backend_best()->mxm_kernel(n2, fma);
}

}  // namespace

MxmFixedFn dispatch_mxm(int n2) {
  switch (selected_backend(n2)) {
    case Backend::kScalar: return nullptr;
    case Backend::kFixedN: return mxm_fixed_kernel(n2);
    case Backend::kSimdFma:
      if (MxmFixedFn f = simd_mxm_or_null(n2, true)) return f;
      return mxm_fixed_kernel(n2);
    case Backend::kBatched:
      // Batching is a gradient-level layout trick; for a lone mxm the
      // batched backend is the plain SIMD kernel.
      if (MxmFixedFn f = simd_mxm_or_null(n2, false)) return f;
      return mxm_fixed_kernel(n2);
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

// Fixed-N backend, and the SIMD backends' fallback outside the specialized
// range, where the basic loops take over — bit-identical either way.
void grad_fixed_n(int dir, const double* d, const double* u, double* out,
                  int n, int nel) {
  if (MxmFixedFn f = mxm_fixed_kernel(n)) {
    grad_mxm(f, dir, d, u, out, n, nel);
  } else {
    grad_basic(dir, d, u, out, n, nel);
  }
}

void grad_simd(bool fma, int dir, const double* d, const double* u,
               double* out, int n, int nel) {
  if (MxmFixedFn f = simd_mxm_or_null(n, fma)) {
    grad_mxm(f, dir, d, u, out, n, nel);
  } else {
    grad_fixed_n(dir, d, u, out, n, nel);
  }
}

}  // namespace

void grad_backend(Backend b, int dir, const double* d, const double* u,
                  double* out, int n, int nel) {
  switch (b) {
    case Backend::kScalar:
      grad_basic(dir, d, u, out, n, nel);
      return;
    case Backend::kFixedN:
      grad_fixed_n(dir, d, u, out, n, nel);
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
  grad_backend(selected_backend(n), dir, d, u, out, n, nel);
}

// ---- autotuning -------------------------------------------------------------

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TuneTable autotune(const std::vector<int>& ns) {
  TuneTable table;
  table.isa = isa_name();
  for (int n : ns) {
    if (n < kMinDispatchN || n > kMaxDispatchN) continue;
    // Gradient-shaped probe: the r+t derivative pair over a working set of
    // ~1200 n-points per direction — the contraction mix the solver runs.
    const int nel = std::max(4, 1200 / (n * n));
    const std::size_t n3 = std::size_t(n) * n * n;
    std::vector<double> d(std::size_t(n) * n), u(n3 * nel), out(n3 * nel);
    util::SplitMix64 rng(0x9e3779b97f4a7c15ULL ^ std::uint64_t(n));
    for (double& x : d) x = rng.uniform() - 0.5;
    for (double& x : u) x = rng.uniform() - 0.5;
    TuneEntry entry;
    entry.n = n;
    double best_sec = 0.0;
    for (std::size_t bi = 0; bi < all_backends().size(); ++bi) {
      const Backend b = all_backends()[bi];
      auto sweep = [&] {
        grad_backend(b, 0, d.data(), u.data(), out.data(), n, nel);
        grad_backend(b, 2, d.data(), u.data(), out.data(), n, nel);
      };
      sweep();  // warmup
      double best = 0.0;
      for (int sample = 0; sample < 3; ++sample) {
        const double t0 = now_seconds();
        for (int rep = 0; rep < 3; ++rep) sweep();
        const double dt = (now_seconds() - t0) / 3.0;
        if (sample == 0 || dt < best) best = dt;
      }
      entry.seconds[bi] = best;
      if (bi == 0 || best < best_sec) {
        best_sec = best;
        entry.best = b;
      }
    }
    table.entries.push_back(entry);
  }
  return table;
}

// ---- tuning-table serialization ---------------------------------------------

namespace {
constexpr const char* kTuneMagic = "cmtbone-kernel-tune v2";
}

std::string serialize_tune_table(const TuneTable& table) {
  std::ostringstream os;
  os << kTuneMagic << "\n";
  os << "isa " << table.isa << "\n";
  os << "backends";
  for (Backend b : all_backends()) os << " " << backend_name(b);
  os << "\n";
  os.precision(17);
  for (const TuneEntry& e : table.entries) {
    os << "n " << e.n << " best " << backend_name(e.best);
    for (double s : e.seconds) os << " " << s;
    os << "\n";
  }
  os << "end " << table.entries.size() << "\n";
  return os.str();
}

std::optional<TuneTable> parse_tune_table(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != kTuneMagic) return std::nullopt;
  if (!std::getline(is, line)) return std::nullopt;
  TuneTable table;
  {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key >> table.isa) || key != "isa") return std::nullopt;
    // A cache measured under a different instruction set ranks backends
    // that do not exist here (or mis-ranks the ones that do): reject it
    // so the caller re-tunes on this machine.
    if (table.isa != isa_name()) return std::nullopt;
  }
  if (!std::getline(is, line)) return std::nullopt;
  {
    // Staleness guard: the backend list must match this build exactly, so
    // caches written before a backend-set change invalidate themselves.
    std::ostringstream want;
    want << "backends";
    for (Backend b : all_backends()) want << " " << backend_name(b);
    if (line != want.str()) return std::nullopt;
  }
  bool closed = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (closed) return std::nullopt;  // nothing may follow the closing line
    std::istringstream ls(line);
    std::string key, bestkey, bestname;
    if (!(ls >> key)) return std::nullopt;
    if (key == "end") {
      long long count = -1;
      std::string extra;
      if (!(ls >> count) || (ls >> extra) ||
          count != static_cast<long long>(table.entries.size())) {
        return std::nullopt;
      }
      closed = true;
      continue;
    }
    TuneEntry e;
    if (!(ls >> e.n >> bestkey >> bestname) || key != "n" ||
        bestkey != "best") {
      return std::nullopt;
    }
    if (e.n < kMinDispatchN || e.n > kMaxDispatchN) return std::nullopt;
    auto b = backend_from_name(bestname);
    if (!b) return std::nullopt;
    e.best = *b;
    for (double& s : e.seconds) {
      if (!(ls >> s) || !(s >= 0.0)) return std::nullopt;
    }
    std::string extra;
    if (ls >> extra) return std::nullopt;
    table.entries.push_back(e);
  }
  // The closing line is written last, so a file cut short anywhere lacks
  // it, or lacks its final newline, or counts entries that are not there.
  if (!closed || text.back() != '\n') return std::nullopt;
  return table;
}

bool save_tune_cache(const TuneTable& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize_tune_table(table);
  return bool(out);
}

std::optional<TuneTable> load_tune_cache(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_tune_table(buf.str());
}

TuneTable ensure_tuned(const std::vector<int>& ns, const std::string& path) {
  if (forced_backend()) return {};
  if (!path.empty()) {
    if (auto cached = load_tune_cache(path)) {
      apply_tune_table(*cached);
      return *cached;
    }
  }
  TuneTable table = autotune(ns);
  apply_tune_table(table);
  if (!path.empty()) save_tune_cache(table, path);
  return table;
}

}  // namespace cmtbone::kernels

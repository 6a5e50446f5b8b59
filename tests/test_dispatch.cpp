// The kernel-backend dispatch layer: selection precedence (forced > tuned >
// default), environment knobs, the autotune table and its cache (round-trip,
// corrupt/stale/foreign-ISA rejection, graceful re-tune), and the contract
// the solver rests on — every forced backend drives the full driver matrix
// (threads x overlap, plus chaos-perturbed communication) to bit-identical
// results, run to run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_workloads.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/mxm.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::FaceBackend;
using cmtbone::core::Physics;
using cmtbone::kernels::all_backends;
using cmtbone::kernels::Backend;
using cmtbone::kernels::backend_bit_identical;
using cmtbone::kernels::backend_from_name;
using cmtbone::kernels::backend_name;
using cmtbone::kernels::clear_tune_table;
using cmtbone::kernels::ensure_tuned;
using cmtbone::kernels::forced_backend;
using cmtbone::kernels::isa_name;
using cmtbone::kernels::kMaxDispatchN;
using cmtbone::kernels::kMinDispatchN;
using cmtbone::kernels::kNumBackends;
using cmtbone::kernels::load_tune_cache;
using cmtbone::kernels::parse_tune_table;
using cmtbone::kernels::save_tune_cache;
using cmtbone::kernels::ScopedBackendForce;
using cmtbone::kernels::selected_backend;
using cmtbone::kernels::serialize_tune_table;
using cmtbone::kernels::set_forced_backend;
using cmtbone::kernels::TuneEntry;
using cmtbone::kernels::TuneTable;

// Every test leaves the process-global selection exactly as it found it:
// no force, no tune table, no leftover environment knobs.
class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    unsetenv(cmtbone::kernels::kBackendEnvVar);
    unsetenv(cmtbone::kernels::kAutotuneEnvVar);
    unsetenv(cmtbone::kernels::kTuneCacheEnvVar);
    cmtbone::kernels::reload_env_selection();
    set_forced_backend(std::nullopt);
    clear_tune_table();
  }
};

TuneTable small_table() {
  TuneTable t;
  t.isa = isa_name();
  TuneEntry e;
  e.n = 5;
  e.best = Backend::kFixedN;
  for (int i = 0; i < kNumBackends; ++i) e.seconds[i] = 0.5 + 0.25 * i;
  t.entries.push_back(e);
  e.n = 12;
  e.best = Backend::kScalar;
  for (int i = 0; i < kNumBackends; ++i) e.seconds[i] = 1e-6 * (i + 1);
  t.entries.push_back(e);
  return t;
}

// --- selection precedence ----------------------------------------------------

TEST_F(DispatchTest, NameRoundTripAndRejects) {
  ASSERT_EQ(int(all_backends().size()), kNumBackends);
  for (Backend b : all_backends()) {
    auto parsed = backend_from_name(backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(backend_from_name(""));
  EXPECT_FALSE(backend_from_name("Scalar"));
  EXPECT_FALSE(backend_from_name("avx2"));  // an ISA, not a backend
  EXPECT_FALSE(backend_from_name("simd "));
}

TEST_F(DispatchTest, ForcedBeatsTunedBeatsDefault) {
  EXPECT_EQ(selected_backend(7), Backend::kBatched);  // default
  TuneTable t;
  t.isa = isa_name();
  TuneEntry e;
  e.n = 7;
  e.best = Backend::kFixedN;
  t.entries.push_back(e);
  cmtbone::kernels::apply_tune_table(t);
  EXPECT_EQ(selected_backend(7), Backend::kFixedN);   // tuned n
  EXPECT_EQ(selected_backend(8), Backend::kBatched);  // untuned n: default
  {
    ScopedBackendForce force(Backend::kScalar);
    EXPECT_EQ(selected_backend(7), Backend::kScalar);  // force wins
    EXPECT_EQ(forced_backend(), Backend::kScalar);
  }
  EXPECT_EQ(selected_backend(7), Backend::kFixedN);  // force restored away
  clear_tune_table();
  EXPECT_EQ(selected_backend(7), Backend::kBatched);
}

TEST_F(DispatchTest, DispatchMxmHonorsForceAndDegradesOutOfRange) {
  {
    ScopedBackendForce force(Backend::kScalar);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(8), nullptr);  // caller uses mxm
  }
  {
    ScopedBackendForce force(Backend::kFixedN);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(8),
              cmtbone::kernels::mxm_fixed_kernel(8));
  }
  // Outside the dispatch range every backend degrades to the runtime
  // kernel, reported as nullptr — never an abort, never a wrong kernel.
  for (Backend b : all_backends()) {
    ScopedBackendForce force(b);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(kMinDispatchN - 1), nullptr)
        << backend_name(b);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(kMaxDispatchN + 1), nullptr)
        << backend_name(b);
  }
  // In range, a SIMD selection hands out a real kernel that matches the
  // runtime mxm bit for bit.
  ScopedBackendForce force(Backend::kBatched);
  cmtbone::kernels::MxmFixedFn f = cmtbone::kernels::dispatch_mxm(6);
  ASSERT_NE(f, nullptr);
  cmtbone::util::SplitMix64 rng(21);
  std::vector<double> a(5 * 6), b(6 * 4), want(5 * 4), got(5 * 4);
  for (double& x : a) x = rng.uniform(-1, 1);
  for (double& x : b) x = rng.uniform(-1, 1);
  cmtbone::kernels::mxm(a.data(), 5, b.data(), 6, want.data(), 4);
  f(a.data(), 5, b.data(), got.data(), 4);
  for (std::size_t p = 0; p < want.size(); ++p) ASSERT_EQ(want[p], got[p]);
}

// --- environment knobs -------------------------------------------------------

TEST_F(DispatchTest, EnvBackendForcesSelectionAndUnknownValueIsIgnored) {
  setenv(cmtbone::kernels::kBackendEnvVar, "fixed-n", 1);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(forced_backend(), Backend::kFixedN);
  EXPECT_EQ(selected_backend(9), Backend::kFixedN);

  // "simd" named a retired backend; like any unknown name it is warned
  // about and ignored.
  for (const char* name : {"warp-drive", "simd"}) {
    setenv(cmtbone::kernels::kBackendEnvVar, name, 1);
    cmtbone::kernels::reload_env_selection();
    EXPECT_EQ(forced_backend(), std::nullopt) << name;
    EXPECT_EQ(selected_backend(9), Backend::kBatched) << name;
  }
}

TEST_F(DispatchTest, AutotuneEnvLoadsValidCacheAtReload) {
  const std::string path = "dispatch_env_cache.tmp";
  TuneTable t;
  t.isa = isa_name();
  TuneEntry e;
  e.n = 6;
  e.best = Backend::kScalar;  // deliberately not the default
  t.entries.push_back(e);
  ASSERT_TRUE(save_tune_cache(t, path));

  setenv(cmtbone::kernels::kAutotuneEnvVar, "1", 1);
  setenv(cmtbone::kernels::kTuneCacheEnvVar, path.c_str(), 1);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(selected_backend(6), Backend::kScalar);   // from the cache
  EXPECT_EQ(selected_backend(10), Backend::kBatched);  // uncached n
  std::remove(path.c_str());
}

TEST_F(DispatchTest, EnvForcedBackendWinsOverCacheAndAutotune) {
  const std::string path = "dispatch_force_cache.tmp";
  TuneTable t;
  t.isa = isa_name();
  TuneEntry e;
  e.n = 5;
  e.best = Backend::kFixedN;
  t.entries.push_back(e);
  ASSERT_TRUE(save_tune_cache(t, path));

  setenv(cmtbone::kernels::kBackendEnvVar, "simd-fma", 1);
  setenv(cmtbone::kernels::kAutotuneEnvVar, "1", 1);
  setenv(cmtbone::kernels::kTuneCacheEnvVar, path.c_str(), 1);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(selected_backend(5), Backend::kSimdFma);  // force, not the cache
  // ensure_tuned also stands down under a force: empty table, no apply.
  TuneTable out = ensure_tuned({5}, path);
  EXPECT_TRUE(out.entries.empty());
  EXPECT_EQ(selected_backend(5), Backend::kSimdFma);
  std::remove(path.c_str());
}

TEST_F(DispatchTest, SelectionIsConsistentWhileForceAndEnvChange) {
  // Every rank thread and pool worker reads the selection on every
  // contraction; in the steady state that is one acquire load, no lock.
  // Readers must always get a valid backend and a kernel that computes the
  // runtime mxm exactly while a writer flips the force and re-reads the
  // environment (the TSan jobs check the accesses themselves).
  setenv(cmtbone::kernels::kBackendEnvVar, "fixed-n", 1);
  std::atomic<bool> stop{false};
  std::atomic<long> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      cmtbone::util::SplitMix64 rng(100 + t);
      std::vector<double> a(3 * 8), b(8 * 2), want(3 * 2), got(3 * 2);
      for (double& x : a) x = rng.uniform(-1, 1);
      for (double& x : b) x = rng.uniform(-1, 1);
      cmtbone::kernels::mxm(a.data(), 3, b.data(), 8, want.data(), 2);
      while (!stop.load(std::memory_order_relaxed)) {
        const Backend sel = selected_backend(8);
        EXPECT_TRUE(backend_bit_identical(sel)) << backend_name(sel);
        if (cmtbone::kernels::MxmFixedFn f = cmtbone::kernels::dispatch_mxm(8)) {
          f(a.data(), 3, b.data(), got.data(), 2);
          EXPECT_EQ(got, want);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200 || reads.load() < 2000; ++i) {
    set_forced_backend(i % 2 ? Backend::kScalar : Backend::kBatched);
    if (i % 10 == 0) cmtbone::kernels::reload_env_selection();
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(forced_backend(), Backend::kFixedN);
}

// --- tune-table round-trip and rejection -------------------------------------

TEST_F(DispatchTest, TuneTableTextRoundTrip) {
  const TuneTable t = small_table();
  auto back = parse_tune_table(serialize_tune_table(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->isa, t.isa);
  ASSERT_EQ(back->entries.size(), t.entries.size());
  for (std::size_t i = 0; i < t.entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].n, t.entries[i].n);
    EXPECT_EQ(back->entries[i].best, t.entries[i].best);
    for (int s = 0; s < kNumBackends; ++s) {
      // %.17g serialization must round-trip measurements exactly.
      EXPECT_EQ(back->entries[i].seconds[s], t.entries[i].seconds[s]);
    }
  }
}

TEST_F(DispatchTest, ParseRejectsCorruptAndStaleCaches) {
  const std::string good = serialize_tune_table(small_table());
  ASSERT_TRUE(parse_tune_table(good).has_value());

  EXPECT_FALSE(parse_tune_table(""));
  EXPECT_FALSE(parse_tune_table("garbage\n"));
  EXPECT_FALSE(parse_tune_table(good + "trailing junk\n"));

  // Truncation: a torn write can stop anywhere, including at a line
  // boundary after a complete entry or inside the last number. Every
  // proper prefix must be rejected, not parsed as a shorter table.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(parse_tune_table(good.substr(0, len))) << "prefix " << len;
  }

  // A cache in the previous (v1) format has no closing line.
  std::string v1 = good;
  v1.replace(v1.find("v2"), 2, "v1");
  EXPECT_FALSE(parse_tune_table(v1));

  // Foreign ISA: a table measured on another machine must be rejected.
  TuneTable alien = small_table();
  alien.isa = "sparc-viz";
  EXPECT_FALSE(parse_tune_table(serialize_tune_table(alien)));

  // Stale backend list: the guard against a future backend-set change.
  std::istringstream in(good);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("backends ", 0) == 0) line = "backends scalar fixed-n";
    out << line << '\n';
  }
  EXPECT_FALSE(parse_tune_table(out.str()));

  // Entry-level damage: out-of-range n, unknown best, missing seconds.
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    auto pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    EXPECT_FALSE(parse_tune_table(text)) << from << " -> " << to;
  };
  mutate("n 5 best", "n 1 best");
  mutate("n 12 best", "n 99 best");
  mutate("best fixed-n", "best banana");
  mutate("best scalar", "best");
  mutate("end 2", "end 3");  // count must match the entries present
}

TEST_F(DispatchTest, CacheFileRoundTripAndCorruptFileFallsBackToRetune) {
  const std::string path = "dispatch_cache_roundtrip.tmp";
  ASSERT_TRUE(save_tune_cache(small_table(), path));
  auto back = load_tune_cache(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries.size(), 2u);

  // Unreadable and corrupt files load as nullopt, never throw.
  EXPECT_FALSE(load_tune_cache("no/such/dir/cache.txt"));
  {
    std::ofstream f(path, std::ios::trunc);
    f << "cmtbone-kernel-tune v2\nisa " << isa_name() << "\nbroken";
  }
  EXPECT_FALSE(load_tune_cache(path));

  // ensure_tuned on the corrupt cache re-tunes (no abort), applies the
  // fresh result, and overwrites the file with a valid cache.
  TuneTable tuned = ensure_tuned({4}, path);
  ASSERT_EQ(tuned.entries.size(), 1u);
  EXPECT_EQ(tuned.entries[0].n, 4);
  EXPECT_EQ(selected_backend(4), tuned.entries[0].best);
  auto healed = load_tune_cache(path);
  ASSERT_TRUE(healed.has_value());
  ASSERT_EQ(healed->entries.size(), 1u);
  EXPECT_EQ(healed->entries[0].n, 4);
  EXPECT_EQ(healed->entries[0].best, tuned.entries[0].best);

  // A later startup loads the healed cache verbatim instead of re-tuning:
  // the measured seconds come back bit-identical, which fresh timing
  // could not reproduce.
  clear_tune_table();
  TuneTable again = ensure_tuned({4}, path);
  ASSERT_EQ(again.entries.size(), 1u);
  for (int s = 0; s < kNumBackends; ++s) {
    EXPECT_EQ(again.entries[0].seconds[s], tuned.entries[0].seconds[s]);
  }
  std::remove(path.c_str());
}

TEST_F(DispatchTest, AutotunePicksTheFastestMeasuredBackend) {
  TuneTable t = cmtbone::kernels::autotune({5});
  ASSERT_EQ(t.entries.size(), 1u);
  EXPECT_EQ(t.isa, isa_name());
  const TuneEntry& e = t.entries[0];
  EXPECT_EQ(e.n, 5);
  const int best = int(e.best);
  for (int s = 0; s < kNumBackends; ++s) {
    EXPECT_GT(e.seconds[s], 0.0) << backend_name(Backend(s));
    EXPECT_LE(e.seconds[best], e.seconds[s]) << backend_name(Backend(s));
  }
}

// --- forced-backend driver determinism ---------------------------------------

using Fields = std::vector<std::vector<double>>;

Config backend_config(Backend b, bool overlap, int threads) {
  Config cfg;
  cfg.physics = Physics::kEuler;
  cfg.face_backend = FaceBackend::kDirect;
  cfg.n = 4;
  cfg.ex = cfg.ey = cfg.ez = 3;
  cfg.fixed_dt = 1e-3;
  cfg.use_dssum = true;
  cfg.overlap = overlap;
  cfg.threads_per_rank = threads;
  cfg.kernel_backend = b;
  return cfg;
}

Fields collect_fields(Driver& driver) {
  Fields f;
  for (int i = 0; i < driver.nfields(); ++i) {
    auto s = driver.field(i);
    f.emplace_back(s.begin(), s.end());
  }
  return f;
}

std::vector<Fields> run_sim(int nranks, const Config& cfg, int steps) {
  std::vector<Fields> out(nranks);
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(steps);
    out[world.rank()] = collect_fields(driver);
  });
  return out;
}

void expect_bitwise_equal(const std::vector<Fields>& a,
                          const std::vector<Fields>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "rank " << r;
    for (std::size_t f = 0; f < a[r].size(); ++f) {
      ASSERT_EQ(a[r][f].size(), b[r][f].size());
      for (std::size_t p = 0; p < a[r][f].size(); ++p) {
        ASSERT_EQ(a[r][f][p], b[r][f][p])
            << "rank " << r << " field " << f << " point " << p;
      }
    }
  }
}

TEST_F(DispatchTest, EveryForcedBackendBitIdenticalAcrossThreadsAndOverlap) {
  // The determinism contract per backend: whatever a backend computes, it
  // computes identically at every thread count and with overlap on or off
  // — and run to run. (Backends are NOT required to agree with each other
  // here; kSimdFma legitimately differs from kScalar by design.)
  const int nranks = 2, steps = 5;
  for (Backend b : all_backends()) {
    const Config serial = backend_config(b, /*overlap=*/false, /*threads=*/1);
    const auto want = run_sim(nranks, serial, steps);
    expect_bitwise_equal(want, run_sim(nranks, serial, steps));  // run-to-run
    for (bool overlap : {false, true}) {
      for (int threads : {2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "backend=" << backend_name(b)
                     << " overlap=" << overlap << " threads=" << threads);
        expect_bitwise_equal(
            want, run_sim(nranks, backend_config(b, overlap, threads), steps));
      }
    }
    expect_bitwise_equal(
        want, run_sim(nranks, backend_config(b, true, 1), steps));
  }
  set_forced_backend(std::nullopt);  // Driver force is process-global
}

TEST_F(DispatchTest, EveryForcedBackendSurvivesChaoticCommunication) {
  // One chaos-seeded driver workload per backend: the chaos engine
  // perturbs message ordering and progress timing, which must never leak
  // into the numerics of any kernel backend.
  const int nranks = 2, steps = 4;
  std::uint64_t seed = 41;
  for (Backend b : all_backends()) {
    SCOPED_TRACE(::testing::Message() << "backend=" << backend_name(b)
                                      << " seed=" << seed);
    const Config cfg = backend_config(b, /*overlap=*/true, /*threads=*/2);
    const auto want = run_sim(nranks, cfg, steps);
    std::vector<Fields> got(nranks);
    chaosws::run_with_chaos(nranks, seed++, [&](Comm& world) {
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      driver.run(steps);
      got[world.rank()] = collect_fields(driver);
    });
    expect_bitwise_equal(want, got);
  }
  set_forced_backend(std::nullopt);
}

}  // namespace

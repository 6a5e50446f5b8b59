// The kernel-backend dispatch layer: selection (a force beats the batched
// default), the environment knob, and the contract the solver rests on —
// every forced backend drives the full driver matrix (threads x overlap,
// plus chaos-perturbed communication) to bit-identical results, run to
// run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "chaos_workloads.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/mxm.hpp"
#include "kernels/simd_backend.hpp"
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
using cmtbone::kernels::forced_backend;
using cmtbone::kernels::kMaxDispatchN;
using cmtbone::kernels::kMinDispatchN;
using cmtbone::kernels::kNumBackends;
using cmtbone::kernels::ScopedBackendForce;
using cmtbone::kernels::selected_backend;
using cmtbone::kernels::set_forced_backend;

// Every test leaves the process-global selection exactly as it found it:
// no force and no leftover environment knob.
class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    unsetenv(cmtbone::kernels::kBackendEnvVar);
    cmtbone::kernels::reload_env_selection();
    set_forced_backend(std::nullopt);
  }
};

// --- selection --------------------------------------------------------------

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

TEST_F(DispatchTest, ForcedBeatsDefault) {
  // With no force, batched is the choice at every length, in the SIMD
  // tables' range or not.
  EXPECT_EQ(forced_backend(), std::nullopt);
  for (int n : {kMinDispatchN - 1, kMinDispatchN, 7, kMaxDispatchN,
                kMaxDispatchN + 1}) {
    EXPECT_EQ(selected_backend(n), Backend::kBatched) << "n=" << n;
  }
  {
    ScopedBackendForce force(Backend::kScalar);
    EXPECT_EQ(selected_backend(7), Backend::kScalar);  // force wins
    EXPECT_EQ(forced_backend(), Backend::kScalar);
    {
      ScopedBackendForce inner(Backend::kSimdFma);
      EXPECT_EQ(selected_backend(7), Backend::kSimdFma);
    }
    EXPECT_EQ(selected_backend(7), Backend::kScalar);  // outer force restored
  }
  EXPECT_EQ(forced_backend(), std::nullopt);
  EXPECT_EQ(selected_backend(7), Backend::kBatched);  // force restored away
}

TEST_F(DispatchTest, DispatchMxmHonorsForceAndDegradesOutOfRange) {
  {
    ScopedBackendForce force(Backend::kScalar);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(8), nullptr);  // caller uses mxm
  }
  // The SIMD backends hand out the widest usable ISA's kernel, fused or
  // not.
  const cmtbone::kernels::SimdBackend* isa =
      cmtbone::kernels::simd_backend_best();
  {
    ScopedBackendForce force(Backend::kSimdFma);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(8), isa->mxm_kernel(8, true));
  }
  {
    ScopedBackendForce force(Backend::kBatched);
    EXPECT_EQ(cmtbone::kernels::dispatch_mxm(8), isa->mxm_kernel(8, false));
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

// --- environment knob -------------------------------------------------------

TEST_F(DispatchTest, EnvBackendForcesSelectionAndUnknownValueIsIgnored) {
  setenv(cmtbone::kernels::kBackendEnvVar, "scalar", 1);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(forced_backend(), Backend::kScalar);
  EXPECT_EQ(selected_backend(9), Backend::kScalar);

  // "simd" and "fixed-n" named retired backends; like any unknown name
  // they are warned about and ignored.
  for (const char* name : {"warp-drive", "simd", "fixed-n"}) {
    setenv(cmtbone::kernels::kBackendEnvVar, name, 1);
    cmtbone::kernels::reload_env_selection();
    EXPECT_EQ(forced_backend(), std::nullopt) << name;
    EXPECT_EQ(selected_backend(9), Backend::kBatched) << name;
  }
}

TEST_F(DispatchTest, EnvForcedBackendBeatsDefaultAndSurvivesReload) {
  setenv(cmtbone::kernels::kBackendEnvVar, "simd-fma", 1);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(selected_backend(5), Backend::kSimdFma);  // env force, not default
  // A programmatic force replaces it until the environment is read again.
  set_forced_backend(Backend::kScalar);
  EXPECT_EQ(selected_backend(5), Backend::kScalar);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(selected_backend(5), Backend::kSimdFma);
  cmtbone::kernels::reload_env_selection();  // idempotent
  EXPECT_EQ(forced_backend(), Backend::kSimdFma);
  unsetenv(cmtbone::kernels::kBackendEnvVar);
  cmtbone::kernels::reload_env_selection();
  EXPECT_EQ(selected_backend(5), Backend::kBatched);
}

TEST_F(DispatchTest, SelectionIsConsistentWhileForceAndEnvChange) {
  // Every rank thread and pool worker reads the selection on every
  // contraction; in the steady state that is one acquire load, no lock.
  // Readers must always get a valid backend and a kernel that computes the
  // runtime mxm exactly while a writer flips the force and re-reads the
  // environment (the TSan jobs check the accesses themselves).
  setenv(cmtbone::kernels::kBackendEnvVar, "scalar", 1);
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
  EXPECT_EQ(forced_backend(), Backend::kScalar);
}

// --- forced-backend driver determinism --------------------------------------

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

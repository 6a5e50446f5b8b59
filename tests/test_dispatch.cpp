// The kernel-backend dispatch layer: the batched default, dispatch_mxm per
// backend, and the contract the solver rests on — every backend drives the
// full driver matrix (threads x overlap, plus chaos-perturbed
// communication) to bit-identical results, run to run, and a Driver's
// backend never reaches another Driver in the same process.

#include <gtest/gtest.h>

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
using cmtbone::core::Physics;
using cmtbone::kernels::all_backends;
using cmtbone::kernels::Backend;
using cmtbone::kernels::backend_name;
using cmtbone::kernels::dispatch_mxm;
using cmtbone::kernels::kMaxDispatchN;
using cmtbone::kernels::kMinDispatchN;
using cmtbone::kernels::kNumBackends;
using cmtbone::kernels::selected_backend;

// --- the default ------------------------------------------------------------

TEST(DispatchTest, ForcedBeatsDefault) {
  // Code outside a Driver runs batched at every length, in the SIMD
  // tables' range or not, and so does a default Config.
  ASSERT_EQ(int(all_backends().size()), kNumBackends);
  for (int n : {kMinDispatchN - 1, kMinDispatchN, 7, kMaxDispatchN,
                kMaxDispatchN + 1}) {
    EXPECT_EQ(selected_backend(n), Backend::kBatched) << "n=" << n;
  }
  EXPECT_EQ(Config().kernel_backend, Backend::kBatched);
}

TEST(DispatchTest, DispatchMxmHonorsForceAndDegradesOutOfRange) {
  EXPECT_EQ(dispatch_mxm(8, Backend::kScalar), nullptr);  // caller uses mxm
  // The SIMD backends hand out the widest usable ISA's kernel, fused or
  // not.
  const cmtbone::kernels::SimdBackend* isa =
      cmtbone::kernels::simd_backend_best();
  EXPECT_EQ(dispatch_mxm(8, Backend::kSimdFma), isa->mxm_kernel(8, true));
  EXPECT_EQ(dispatch_mxm(8, Backend::kBatched), isa->mxm_kernel(8, false));
  // Outside the dispatch range every backend degrades to the runtime
  // kernel, reported as nullptr — never an abort, never a wrong kernel.
  for (Backend b : all_backends()) {
    EXPECT_EQ(dispatch_mxm(kMinDispatchN - 1, b), nullptr) << backend_name(b);
    EXPECT_EQ(dispatch_mxm(kMaxDispatchN + 1, b), nullptr) << backend_name(b);
  }
  // In range, the batched backend hands out a real kernel that matches the
  // runtime mxm bit for bit.
  cmtbone::kernels::MxmFixedFn f = dispatch_mxm(6, Backend::kBatched);
  ASSERT_NE(f, nullptr);
  cmtbone::util::SplitMix64 rng(21);
  std::vector<double> a(5 * 6), b(6 * 4), want(5 * 4), got(5 * 4);
  for (double& x : a) x = rng.uniform(-1, 1);
  for (double& x : b) x = rng.uniform(-1, 1);
  cmtbone::kernels::mxm(a.data(), 5, b.data(), 6, want.data(), 4);
  f(a.data(), 5, b.data(), got.data(), 4);
  for (std::size_t p = 0; p < want.size(); ++p) ASSERT_EQ(want[p], got[p]);
}

// --- per-Driver backends -----------------------------------------------------

using Fields = std::vector<std::vector<double>>;

Config backend_config(Backend b, bool overlap, int threads) {
  Config cfg;
  cfg.physics = Physics::kEuler;
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

TEST(DispatchTest, EveryForcedBackendBitIdenticalAcrossThreadsAndOverlap) {
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
}

TEST(DispatchTest, EveryForcedBackendSurvivesChaoticCommunication) {
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
}

TEST(DispatchTest, KernelBackendStaysWithItsDriver) {
  // A Driver's kernel backend is its own: a default Driver built after a
  // simd-fma one ends at the bits it reaches alone, not at the FMA run's.
  Config plain;
  plain.n = 6;
  plain.ex = plain.ey = plain.ez = 2;
  plain.threads_per_rank = 1;
  Config fma = plain;
  fma.kernel_backend = Backend::kSimdFma;
  const int steps = 3;
  const auto alone = run_sim(1, plain, steps);
  const auto fused = run_sim(1, fma, steps);
  // The FMA run must differ, or the check below would prove nothing.
  ASSERT_NE(alone, fused);
  expect_bitwise_equal(alone, run_sim(1, plain, steps));
}

}  // namespace

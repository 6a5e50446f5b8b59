// The deterministic worker pool: chunk coverage, exception propagation,
// concurrent submitters, and — the contract everything rests on — bit
// identity of threaded runs against serial across the driver matrix
// (ranks x backends x overlap), the Nekbone CG solve, and degenerate
// topologies.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "nekbone/nekbone.hpp"
#include "parallel/parallel.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::Physics;
using cmtbone::parallel::Pool;

// --- pool mechanics ----------------------------------------------------------

TEST(Pool, ForRangeCoversEveryIndexExactlyOnce) {
  Pool pool(3);
  for (std::size_t count : {1u, 7u, 64u, 1000u}) {
    for (std::size_t grain : {1u, 3u, 16u, 2000u}) {
      for (int threads : {1, 2, 4, 9}) {
        std::vector<std::atomic<int>> hits(count);
        for (auto& h : hits) h.store(0);
        pool.for_range(count, grain, threads,
                       [&](std::size_t lo, std::size_t hi) {
                         ASSERT_LT(lo, hi);
                         ASSERT_LE(hi, count);
                         for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                       });
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "count=" << count << " grain=" << grain
              << " threads=" << threads << " index=" << i;
        }
      }
    }
  }
}

TEST(Pool, ZeroCountIsANoOp) {
  Pool pool(2);
  bool called = false;
  pool.for_range(0, 4, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  cmtbone::parallel::for_elements(0, 1, 4,
                                  [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Pool, ZeroWorkerPoolRunsEntirelyOnCaller) {
  Pool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  std::vector<int> hits(100, 0);
  const auto caller = std::this_thread::get_id();
  pool.for_range(hits.size(), 7, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Pool, ThreadedElementResultsMatchSerialBitwise) {
  // Per-element compute writing disjoint slots: any thread count and any
  // chunking must produce the same bits, because each slot's arithmetic is
  // untouched by the split.
  const std::size_t count = 257;
  auto compute = [](std::size_t i) {
    return std::sin(0.1 * double(i)) * std::sqrt(double(i) + 2.0);
  };
  std::vector<double> serial(count), threaded(count);
  cmtbone::parallel::for_elements(count, 64, 1,
                                  [&](std::size_t lo, std::size_t hi) {
                                    for (std::size_t i = lo; i < hi; ++i)
                                      serial[i] = compute(i);
                                  });
  for (std::size_t grain : {1u, 5u, 50u}) {
    for (int threads : {2, 4}) {
      std::fill(threaded.begin(), threaded.end(), -1.0);
      cmtbone::parallel::for_elements(count, grain, threads,
                                      [&](std::size_t lo, std::size_t hi) {
                                        for (std::size_t i = lo; i < hi; ++i)
                                          threaded[i] = compute(i);
                                      });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(serial[i], threaded[i]) << "grain=" << grain
                                          << " threads=" << threads;
      }
    }
  }
}

TEST(Pool, FirstExceptionRethrownOnSubmitterAndPoolStaysUsable) {
  Pool pool(2);
  EXPECT_THROW(
      pool.for_range(100, 1, 4,
                     [&](std::size_t lo, std::size_t) {
                       if (lo == 42) throw std::runtime_error("chunk 42");
                     }),
      std::runtime_error);
  // The pool must remain fully functional after an unwind.
  std::vector<std::atomic<int>> hits(50);
  for (auto& h : hits) h.store(0);
  pool.for_range(hits.size(), 4, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Pool, ConcurrentSubmittersShareThePoolSafely) {
  // Several "rank" threads with regions in flight at once — the production
  // shape (ranks are std::threads sharing Pool::global()). Every submitter
  // must see its own region complete exactly, regardless of who served it.
  Pool pool(3);
  const int submitters = 6;
  const std::size_t count = 400;
  std::vector<std::vector<int>> hits(submitters, std::vector<int>(count, 0));
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.for_range(count, 16, 3, [&, s](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++hits[s][i];
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < submitters; ++s) {
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[s][i], 20) << "submitter " << s << " index " << i;
    }
  }
}

TEST(Pool, DefaultGrainTilesTheRange) {
  using cmtbone::parallel::default_grain;
  for (std::size_t count : {1u, 2u, 15u, 16u, 100u, 4097u}) {
    for (int threads : {1, 2, 4, 16}) {
      const std::size_t g = default_grain(count, threads);
      ASSERT_GE(g, 1u);
      // Enough chunks for every participating thread.
      const std::size_t nchunks = (count + g - 1) / g;
      EXPECT_GE(nchunks * g, count);
    }
  }
}

TEST(ResolveThreads, PositiveRequestWinsOverEnvironment) {
  setenv("CMTBONE_THREADS_PER_RANK", "7", 1);
  EXPECT_EQ(cmtbone::parallel::resolve_threads(3), 3);
  EXPECT_EQ(cmtbone::parallel::resolve_threads(0), 7);
  unsetenv("CMTBONE_THREADS_PER_RANK");
  EXPECT_EQ(cmtbone::parallel::resolve_threads(0), 1);
  EXPECT_EQ(cmtbone::parallel::resolve_threads(-2), 1);
}

// --- driver: threaded runs bit-identical to serial ---------------------------

using Fields = std::vector<std::vector<double>>;

Config matrix_config(bool overlap, int threads) {
  Config cfg;
  cfg.physics = Physics::kEuler;
  cfg.n = 4;
  cfg.ex = cfg.ey = cfg.ez = 3;
  cfg.fixed_dt = 1e-3;
  cfg.use_dssum = true;
  cfg.overlap = overlap;
  cfg.threads_per_rank = threads;
  return cfg;
}

std::vector<Fields> run_sim(int nranks, const Config& cfg, int steps) {
  std::vector<Fields> out(nranks);
  cmtbone::comm::run(nranks, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(steps);
    Fields f;
    for (int i = 0; i < driver.nfields(); ++i) {
      auto s = driver.field(i);
      f.emplace_back(s.begin(), s.end());
    }
    out[world.rank()] = std::move(f);
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

TEST(ThreadedDriver, BitIdenticalAcrossThreadsRanksBackendsOverlap) {
  const int steps = 6;
  for (bool overlap : {false, true}) {
    Config serial = matrix_config(overlap, 1);
    for (int nranks : {1, 2, 4}) {
      auto want = run_sim(nranks, serial, steps);
      for (int threads : {2, 4}) {
        Config cfg = matrix_config(overlap, threads);
        SCOPED_TRACE(testing::Message() << "overlap=" << overlap << " ranks="
                                        << nranks << " threads=" << threads);
        expect_bitwise_equal(want, run_sim(nranks, cfg, steps));
      }
    }
  }
}

TEST(ThreadedDriver, ThreadedMatchesSerialWithDealiasAndParticles) {
  // The serial-only terms (dealias checksum, particle deposition) must stay
  // serial — this run goes wrong if anyone ever threads them naively.
  Config serial = matrix_config(true, 1);
  serial.dealias = true;
  serial.particles_per_rank = 16;
  serial.particle_coupling = 0.05;
  Config threaded = serial;
  threaded.threads_per_rank = 4;
  expect_bitwise_equal(run_sim(2, serial, 6), run_sim(2, threaded, 6));
}

TEST(ThreadedDriver, DegenerateSingleElementTopology) {
  // One element per rank: empty interior class, every face locally mirrored
  // or remote, zero-length pack loops on some plans. Exercises the checked
  // copy paths and the pool's tiny-range budgeting.
  for (int nranks : {1, 2}) {
    Config serial;
    serial.physics = Physics::kEuler;
    serial.n = 3;
    serial.ex = nranks;
    serial.ey = serial.ez = 1;
    serial.px = nranks;
    serial.py = serial.pz = 1;
    serial.fixed_dt = 1e-3;
    serial.threads_per_rank = 1;
    Config threaded = serial;
    threaded.threads_per_rank = 4;
    SCOPED_TRACE(nranks);
    expect_bitwise_equal(run_sim(nranks, serial, 4),
                         run_sim(nranks, threaded, 4));
  }
}

TEST(ThreadedDriver, NonPeriodicBoundaryTopology) {
  Config serial = matrix_config(false, 1);
  serial.periodic = false;
  Config threaded = serial;
  threaded.threads_per_rank = 3;
  expect_bitwise_equal(run_sim(2, serial, 5), run_sim(2, threaded, 5));
}

// --- nekbone: threaded CG bit-identical --------------------------------------

TEST(ThreadedNekbone, CgSolveBitIdenticalToSerial) {
  using cmtbone::nekbone::Nekbone;
  using cmtbone::nekbone::NekboneConfig;
  auto solve = [](int threads) {
    std::vector<std::vector<double>> xs(2);
    std::vector<int> iters(2, -1);
    cmtbone::comm::run(2, [&](Comm& world) {
      NekboneConfig cfg;
      cfg.n = 5;
      cfg.ex = cfg.ey = cfg.ez = 4;
      cfg.threads_per_rank = threads;
      Nekbone nek(world, cfg);
      std::vector<double> x(nek.points(), 0.0), b(nek.points());
      nek.assemble_rhs(
          [](double x0, double y0, double z0) {
            return std::cos(2.0 * M_PI * x0) * std::sin(2.0 * M_PI * y0) +
                   z0;
          },
          std::span<double>(b));
      auto res = nek.solve_cg(std::span<double>(x), b, 50, 1e-10);
      xs[world.rank()] = std::move(x);
      iters[world.rank()] = res.iterations;
    });
    return std::make_pair(xs, iters);
  };
  auto [x1, it1] = solve(1);
  auto [x4, it4] = solve(4);
  EXPECT_EQ(it1, it4);
  ASSERT_EQ(x1.size(), x4.size());
  for (std::size_t r = 0; r < x1.size(); ++r) {
    ASSERT_EQ(x1[r].size(), x4[r].size());
    for (std::size_t i = 0; i < x1[r].size(); ++i) {
      ASSERT_EQ(x1[r][i], x4[r][i]) << "rank " << r << " point " << i;
    }
  }
}

}  // namespace

// Intra-rank thread scaling of the element loops (volume flux divergence,
// surface flux, face pack/unpack) through the shared parallel::Pool.
//
// Sweeps N x ranks x threads_per_rank over the proxy mini-app and writes
// BENCH_threads.json: wall time per step, the profiled volume-kernel
// ("ax_ (flux divergence)") seconds, and the speedup of each thread count
// against threads_per_rank=1 at the same (N, ranks). The host's
// hardware_concurrency and the pool's actual worker count are recorded so a
// flat curve on an oversubscribed box reads as what it is — every value of
// threads_per_rank is bit-identical by construction, so the sweep measures
// time only.
//
// --smoke gates what is enforceable on any host, including single-core CI:
//   1. threads_per_rank=1 must cost < 3% over the raw serial loop (the
//      pool's serial path is an inline call; this catches dispatch bloat),
//   2. a threaded run must be bit-identical to the serial run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "parallel/parallel.hpp"
#include "prof/callprof.hpp"
#include "prof/timer.hpp"
#include "util/cli.hpp"

namespace {

using namespace cmtbone;

struct Sample {
  double wall_seconds = 0;   // whole run, max over ranks is what run() takes
  double volume_seconds = 0; // rank 0 profiled "ax_ (flux divergence)"
};

core::Config sweep_config(int n, int threads) {
  core::Config cfg;
  cfg.n = n;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.physics = core::Physics::kProxyAdvection;
  cfg.fixed_dt = 1e-3;
  cfg.threads_per_rank = threads;
  return cfg;
}

Sample run_case(int ranks, const core::Config& cfg, int steps) {
  std::vector<prof::CallProfile> profiles;
  comm::RunOptions opts;
  opts.call_profiles = &profiles;
  prof::WallTimer t;
  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(steps);
  }, opts);
  Sample s;
  s.wall_seconds = t.seconds();
  for (const auto& entry : profiles.at(0).flat()) {
    if (entry.name == "ax_ (flux divergence)") s.volume_seconds = entry.inclusive;
  }
  return s;
}

std::vector<std::vector<double>> run_fields(int ranks, const core::Config& cfg,
                                            int steps) {
  std::vector<std::vector<double>> fields;
  std::mutex mu;
  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(steps);
    std::lock_guard<std::mutex> lock(mu);
    if (fields.size() < std::size_t(ranks) * driver.nfields()) {
      fields.resize(std::size_t(ranks) * driver.nfields());
    }
    for (int f = 0; f < driver.nfields(); ++f) {
      auto span = driver.field(f);
      fields[std::size_t(world.rank()) * driver.nfields() + f]
          .assign(span.begin(), span.end());
    }
  });
  return fields;
}

// --- smoke gates -------------------------------------------------------------

// Gate 1's loop body, out of line so both timed arms run this one copy of
// the machine code: a ratio of two separately inlined copies moves with
// their code placement, not with the dispatch cost it gates.
[[gnu::noinline]] void axpy_elements(double* a, const double* b,
                                     std::size_t epts, std::size_t lo,
                                     std::size_t hi) {
  for (std::size_t e = lo; e < hi; ++e) {
    double* ap = a + e * epts;
    const double* bp = b + e * epts;
    for (std::size_t p = 0; p < epts; ++p) ap[p] += 1.0000001 * bp[p];
  }
}

int run_smoke() {
  int failures = 0;

  // Gate 1: the serial path of for_elements is an inline call; its overhead
  // over a raw loop must stay < 3%, read as the median of paired ratios.
  {
    const std::size_t nel = 256, epts = 4096;
    std::vector<double> a(nel * epts, 1.0), b(nel * epts, 0.5);
    auto body = [&](std::size_t lo, std::size_t hi) {
      axpy_elements(a.data(), b.data(), epts, lo, hi);
    };
    body(0, nel);  // warm up
    const bench::PairedRatio r = bench::paired_ratio(
        101,
        [&] {
          prof::WallTimer t;
          body(0, nel);
          return t.seconds();
        },
        [&] {
          prof::WallTimer t;
          parallel::for_elements(nel, parallel::default_grain(nel, 1), 1,
                                 body);
          return t.seconds();
        });
    std::printf("smoke: threads_per_rank=1 overhead (%d pairs): raw %.3f "
                "ms, for_elements %.3f ms, median pair ratio %.4f "
                "(quartiles %.4f-%.4f, gate < 1.03)\n",
                r.pairs, r.reference_median * 1e3, r.candidate_median * 1e3,
                r.median, r.q1, r.q3);
    if (r.median >= 1.03) {
      std::fprintf(stderr, "FAIL: serial for_elements overhead %.1f%% >= 3%%\n",
                   (r.median - 1.0) * 100.0);
      ++failures;
    }
  }

  // Gate 2: threaded runs must be bit-identical to serial. 2 ranks keeps a
  // real face exchange in the loop.
  {
    core::Config serial = sweep_config(5, 1);
    core::Config threaded = sweep_config(5, 4);
    const int steps = 3, ranks = 2;
    auto want = run_fields(ranks, serial, steps);
    auto got = run_fields(ranks, threaded, steps);
    bool same = want.size() == got.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].size() == got[i].size() &&
             std::memcmp(want[i].data(), got[i].data(),
                         want[i].size() * sizeof(double)) == 0;
    }
    std::printf("smoke: threads_per_rank=4 vs 1 bit-identity: %s\n",
                same ? "identical" : "DIFFERENT");
    if (!same) {
      std::fprintf(stderr, "FAIL: threaded run is not bit-identical\n");
      ++failures;
    }
  }

  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("steps", "time steps per case (default 5)")
      .describe("json", "output path (default BENCH_threads.json)")
      .describe("smoke", "run the fast gates instead of the sweep");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();
  if (cli.has("smoke")) return run_smoke();

  const int steps = cli.get_int("steps", 5);
  const std::string path = cli.get("json", "BENCH_threads.json");
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = parallel::Pool::global().worker_count();

  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"thread_scaling\",\n"
               "  \"volume_kernel\": \"ax_ (flux divergence), rank 0 "
               "inclusive seconds\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"pool_workers\": %d,\n"
               "  \"cycle_unit\": \"%s\",\n"
               "  \"note\": \"speedup_vs_serial compares against "
               "threads_per_rank=1 at the same (n, ranks); on a host with "
               "hardware_concurrency <= ranks the pool is oversubscribed and "
               "flat curves are expected\",\n"
               "  \"results\": [\n",
               hw, workers, prof::cycle_unit_name());

  std::printf("=== intra-rank thread scaling (hardware_concurrency=%u, "
              "pool workers=%d) ===\n", hw, workers);
  bool first = true;
  for (int n : {8, 16}) {
    for (int ranks : {1, 2, 4}) {
      double serial_volume = 0, serial_wall = 0;
      for (int threads : {1, 2, 4}) {
        Sample s = run_case(ranks, sweep_config(n, threads), steps);
        if (threads == 1) {
          serial_volume = s.volume_seconds;
          serial_wall = s.wall_seconds;
        }
        const double vol_speedup =
            s.volume_seconds > 0 ? serial_volume / s.volume_seconds : 0.0;
        std::printf("  n=%2d ranks=%d threads=%d  wall %7.3f s  volume %7.3f s"
                    "  volume speedup %.2fx\n",
                    n, ranks, threads, s.wall_seconds, s.volume_seconds,
                    vol_speedup);
        std::fprintf(out,
                     "%s    {\"n\": %d, \"ranks\": %d, "
                     "\"threads_per_rank\": %d, \"steps\": %d, "
                     "\"wall_seconds\": %.6f, \"volume_seconds\": %.6f, "
                     "\"volume_speedup_vs_serial\": %.3f, "
                     "\"wall_speedup_vs_serial\": %.3f}",
                     first ? "" : ",\n", n, ranks, threads, steps,
                     s.wall_seconds, s.volume_seconds, vol_speedup,
                     s.wall_seconds > 0 ? serial_wall / s.wall_seconds : 0.0);
        first = false;
      }
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("(json written to %s)\n", path.c_str());
  return 0;
}

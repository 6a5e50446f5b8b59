#pragma once
// Wall-clock and cycle timers.
//
// The paper reports PAPI total-cycle counts (Figs 5/6); PAPI is not
// available here, so cycle counts come from the TSC. On modern x86 the TSC
// is constant-rate and monotonic, which is exactly what a relative
// comparison between kernel variants needs.

#include <chrono>
#include <cstdint>
#include <ctime>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace cmtbone::prof {

/// Monotonic wall-clock timer in seconds.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time timer in seconds: counts only cycles this thread
/// actually executed. Two distortions that wall clocks suffer vanish here,
/// and both matter because our "ranks" are threads in one process:
///   * time blocked in a comm wait (condition variable) accrues no CPU, so
///     a rank waiting on a slow neighbor is not charged for the neighbor's
///     work, and
///   * time descheduled while other rank-threads share the same cores is
///     not charged either, so per-rank busy time on an oversubscribed test
///     host matches what a one-rank-per-node deployment would measure.
/// This is the clock the load-balancing cost model runs on.
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}

  void restart() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
    }
#endif
    // Fallback: wall time (correct on a dedicated core, pessimistic when
    // rank-threads share one).
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_ = 0;
};

/// What read_cycles() actually counts. On x86 it is raw TSC ticks; the
/// non-x86 fallback is steady-clock *nanoseconds*. The two differ by the
/// TSC frequency (a few GHz), so consumers must never mix readings across
/// platforms as if they shared a unit — benches report cycle_unit_name()
/// next to every count.
enum class CycleUnit { kTscCycles, kNanoseconds };

constexpr CycleUnit cycle_unit() {
#if defined(__x86_64__) || defined(_M_X64)
  return CycleUnit::kTscCycles;
#else
  return CycleUnit::kNanoseconds;
#endif
}

constexpr const char* cycle_unit_name(CycleUnit u = cycle_unit()) {
  return u == CycleUnit::kTscCycles ? "tsc-cycles" : "nanoseconds";
}

/// Read the platform cycle counter; interpret via cycle_unit().
inline std::uint64_t read_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

}  // namespace cmtbone::prof

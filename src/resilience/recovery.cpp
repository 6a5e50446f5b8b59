#include "resilience/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "comm/runtime.hpp"
#include "prof/timer.hpp"

namespace cmtbone::resilience {

namespace {
long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 finalizer (the same mixer the chaos engine uses): one draw per
// (seed, attempt), so the jitter schedule is reproducible from the policy.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}
}  // namespace

double jittered_backoff_ms(const RecoveryPolicy& policy, int attempt,
                           double backoff_ms) {
  const double jitter = std::clamp(policy.backoff_jitter, 0.0, 1.0);
  if (jitter <= 0.0) return backoff_ms;
  const std::uint64_t h =
      mix64(policy.backoff_seed ^ mix64(std::uint64_t(attempt) +
                                        0x9e3779b97f4a7c15ull));
  const double unit = double(h >> 11) * 0x1.0p-53;  // [0, 1)
  return backoff_ms * (1.0 - jitter * unit);
}

RecoveryReport run_with_recovery(int nranks, const core::Config& config,
                                 int nsteps, const RecoveryPolicy& policy,
                                 RecoveryOptions options) {
  if (options.checkpoint.directory.empty()) {
    throw std::invalid_argument(
        "run_with_recovery: options.checkpoint.directory must be set");
  }
  RecoveryReport report;
  options.checkpoint.stats = &report.stats;
  if (options.checkpoint.chaos == nullptr) {
    options.checkpoint.chaos = options.chaos;
  }

  // Cross-attempt bookkeeping, written by rank 0's thread inside the job
  // and read by the supervisor after the join (atomics because a failed
  // attempt's threads die at uncoordinated points).
  std::atomic<long long> progress{0};      // furthest step any attempt reached
  std::atomic<long long> committed{-1};    // newest epoch checkpoint_now took
  std::atomic<long long> restored{-1};     // epoch the latest attempt loaded
  std::atomic<long long> restore_done_ns{0};

  long long pending_fail_ns = 0;
  double backoff_ms = policy.backoff_initial_ms;
  // The deadline clock covers the whole supervised run: attempts, backoff
  // sleeps, and restores all bill against it.
  prof::WallTimer deadline_timer;
  const bool watched =
      bool(options.yield_requested) || options.deadline_seconds > 0.0;

  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    report.attempts += 1;
    restored.store(-1);

    comm::RunOptions run_options;
    run_options.chaos = options.chaos;
    run_options.recovery = &report.stats;
    // Survivors of this attempt report failure against the attempt's base
    // epoch: the newest globally committed checkpoint at launch.
    run_options.epoch = committed.load();

    try {
      comm::run(
          nranks,
          [&](comm::Comm& world) {
            core::Driver driver(world, config);
            CheckpointCoordinator coordinator(world, options.checkpoint);
            const long long from = coordinator.restore_latest(driver);
            if (from >= 0) {
              if (world.rank() == 0) {
                restored.store(from);
                committed.store(std::max(committed.load(), from));
                restore_done_ns.store(now_ns());
              }
            } else {
              driver.initialize(options.initial_condition
                                    ? options.initial_condition
                                    : driver.default_ic());
            }
            const int remaining = nsteps - int(driver.steps_taken());
            driver.run(remaining, [&](core::Driver& d) {
              if (world.rank() == 0) {
                progress.store(
                    std::max(progress.load(), (long long)d.steps_taken()));
              }
              // Kill BEFORE the boundary's checkpoint: a rank that dies at
              // step s never contributes to epoch s, so recovery must come
              // from an older epoch — the adversarial ordering.
              if (options.chaos != nullptr) {
                options.chaos->on_step(world.global_rank(world.rank()),
                                       d.steps_taken());
              }
              const long long epoch = coordinator.maybe_checkpoint(d);
              if (epoch >= 0 && world.rank() == 0) {
                committed.store(std::max(committed.load(), epoch));
              }
              // Cooperative preemption / deadline: rank 0 samples the
              // flags, the allreduce makes the verdict identical on every
              // rank, and the whole job acts on it together — a lone rank
              // never unwinds while its peers post the next exchange.
              // Skipped entirely (no extra collective) when unwatched, and
              // at the final step, where finishing beats suspending.
              if (watched && d.steps_taken() < nsteps) {
                int want = 0;
                if (world.rank() == 0) {
                  if (options.yield_requested && options.yield_requested()) {
                    want |= 1;
                  }
                  if (options.deadline_seconds > 0.0 &&
                      deadline_timer.seconds() > options.deadline_seconds) {
                    want |= 2;
                  }
                }
                const int agreed =
                    world.allreduce_one<int>(want, comm::ReduceOp::kMax);
                if (agreed & 2) {
                  throw DeadlineExceeded(options.deadline_seconds,
                                         d.steps_taken());
                }
                if (agreed & 1) {
                  // Suspend exactly at this boundary: commit the state
                  // (unless this step already checkpointed) and unwind.
                  long long suspend_epoch = epoch;
                  if (suspend_epoch < 0) {
                    suspend_epoch = coordinator.checkpoint_now(d);
                  }
                  if (world.rank() == 0) {
                    committed.store(
                        std::max(committed.load(), suspend_epoch));
                  }
                  throw JobPreempted(suspend_epoch);
                }
              }
            });
            if (options.on_final) options.on_final(driver, world);
          },
          run_options);

      // Attempt succeeded. Close an open repair interval (failure observed
      // -> this attempt's restore finished) before reporting.
      const long long done = restore_done_ns.load();
      if (pending_fail_ns != 0 && done > pending_fail_ns) {
        report.stats.repair_seconds_sum +=
            double(done - pending_fail_ns) * 1e-9;
        pending_fail_ns = 0;
      }
      report.completed = true;
      report.failures = int(report.stats.failures);
      report.last_restored_epoch = restored.load();
      report.steps_reached = progress.load();
      return report;
    } catch (const JobPreempted& p) {
      // Not a failure: the suspend checkpoint committed before the unwind,
      // so a later call on the same directory resumes bit-identically.
      const long long done = restore_done_ns.load();
      if (pending_fail_ns != 0 && done > pending_fail_ns) {
        report.stats.repair_seconds_sum +=
            double(done - pending_fail_ns) * 1e-9;
      }
      report.preempted = true;
      report.preempt_epoch = p.epoch;
      report.failures = int(report.stats.failures);
      report.last_restored_epoch = restored.load();
      report.steps_reached = progress.load();
      return report;
    } catch (const DeadlineExceeded&) {
      throw;  // terminal by design: a retry could not finish any sooner
    } catch (const core::SolverDiverged&) {
      // Terminal too, but counted as a failure: the run is deterministic,
      // so replaying from the last checkpoint reproduces the same
      // non-physical state bit for bit — retrying cannot help. The caller
      // (service layer) attributes the structured error to the job.
      report.stats.failures += 1;
      throw;
    } catch (...) {
      const long long fail_ns = now_ns();
      report.stats.failures += 1;
      // Work beyond the rollback point is recomputed: steps past the last
      // committed epoch (or past step 0 when no epoch ever committed).
      report.stats.steps_lost +=
          std::max(0LL, progress.load() - std::max(committed.load(), 0LL));
      // This failed attempt may itself have restored after an earlier
      // failure; close that interval too.
      const long long done = restore_done_ns.exchange(0);
      if (pending_fail_ns != 0 && done > pending_fail_ns) {
        report.stats.repair_seconds_sum +=
            double(done - pending_fail_ns) * 1e-9;
      }
      pending_fail_ns = fail_ns;
      if (attempt == policy.max_retries) throw;
      if (options.deadline_seconds > 0.0 &&
          deadline_timer.seconds() > options.deadline_seconds) {
        throw DeadlineExceeded(options.deadline_seconds, progress.load());
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          jittered_backoff_ms(policy, attempt, backoff_ms)));
      backoff_ms =
          std::min(backoff_ms * policy.backoff_multiplier,
                   policy.backoff_max_ms);
    }
  }
  // Unreachable: the final failed attempt rethrows above.
  return report;
}

}  // namespace cmtbone::resilience

#pragma once
// Recovery supervisor: the resilient run loop. run_with_recovery() wraps
// comm::run around a driver + checkpoint coordinator, and when an attempt
// dies (a rank threw; survivors unwound via RankFailed), it rolls the job
// back to the newest globally complete checkpoint and re-launches with
// bounded retries and exponential backoff. A chaos-killed run recovers to
// bit-identical final fields: restart re-reads the exact bytes the rollback
// epoch committed, and the solver is deterministic from any committed state.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "chaos/chaos.hpp"
#include "comm/comm.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "prof/recovery.hpp"
#include "resilience/checkpoint_coordinator.hpp"

namespace cmtbone::resilience {

struct RecoveryPolicy {
  /// Re-launches allowed after a failed attempt (total attempts = 1 + this).
  int max_retries = 3;
  /// Exponential backoff between attempts.
  double backoff_initial_ms = 1.0;
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 1000.0;
  /// Decorrelating jitter: each backoff sleep is scaled by a factor drawn
  /// deterministically from (backoff_seed, attempt) in
  /// [1 - backoff_jitter, 1]. 0 (default) keeps the historical lockstep
  /// schedule; the service scheduler sets it so simultaneous multi-job
  /// restarts do not retry in phase and storm the checkpoint directory.
  double backoff_jitter = 0.0;
  std::uint64_t backoff_seed = 0;
};

/// The seed-deterministic jittered sleep for `attempt`'s retry: backoff_ms
/// scaled into [1 - jitter, 1]. Exposed so tests can pin the schedule.
double jittered_backoff_ms(const RecoveryPolicy& policy, int attempt,
                           double backoff_ms);

struct RecoveryOptions {
  /// Checkpoint cadence and placement; `checkpoint.directory` is required.
  CheckpointOptions checkpoint;
  /// Chaos engine threaded through both the comm runtime (schedule
  /// perturbation, abort faults) and the step hook (kill_step faults).
  /// Also installed as the coordinator's corruption source unless
  /// checkpoint.chaos is already set.
  chaos::ChaosEngine* chaos = nullptr;
  /// Initial condition for a cold start (default: driver.default_ic()).
  core::FieldFunction initial_condition;
  /// Runs on every rank after the final step of the successful attempt
  /// (e.g. to capture final fields for comparison). May use collectives.
  std::function<void(core::Driver&, comm::Comm&)> on_final;
  /// Cooperative preemption: polled on rank 0's step hook and agreed by
  /// allreduce so every rank decides identically. When it turns true the
  /// job takes a coordinated checkpoint at the next step boundary and
  /// unwinds with JobPreempted; run_with_recovery returns with
  /// report.preempted = true and the checkpoint directory holds the exact
  /// state to resume from (a later run_with_recovery on the same directory
  /// continues bit-identically). Null = never preempt (no per-step
  /// collective is added).
  std::function<bool()> yield_requested;
  /// Wall-clock budget for this run_with_recovery call, spanning retries
  /// and backoff (<= 0 = none). Checked at step boundaries (rank-agreed)
  /// and between attempts; exceeding it throws DeadlineExceeded, which the
  /// supervisor treats as terminal (never retried).
  double deadline_seconds = 0.0;
};

/// Thrown on every rank (after rank agreement) when yield_requested asks a
/// running job to suspend; the suspend checkpoint has already committed
/// when this unwinds. run_with_recovery converts it into a report with
/// preempted = true — it only escapes if thrown outside a supervised run.
struct JobPreempted : std::runtime_error {
  long long epoch;
  explicit JobPreempted(long long checkpoint_epoch)
      : std::runtime_error("job preempted at checkpoint epoch " +
                           std::to_string(checkpoint_epoch)),
        epoch(checkpoint_epoch) {}
};

/// The run exceeded RecoveryOptions::deadline_seconds. Terminal: the
/// supervisor rethrows instead of retrying (a retry could not finish any
/// sooner).
struct DeadlineExceeded : std::runtime_error {
  explicit DeadlineExceeded(double deadline_s, long long step)
      : std::runtime_error("job deadline of " + std::to_string(deadline_s) +
                           "s exceeded at step " + std::to_string(step)) {}
};

struct RecoveryReport {
  bool completed = false;         // reached nsteps (true unless preempted;
                                  // exhausted retries rethrow instead)
  bool preempted = false;         // suspended via yield_requested; resume
                                  // by re-running on the same directory
  long long preempt_epoch = -1;   // epoch the suspend checkpoint committed
  int attempts = 0;               // comm::run launches, including the first
  int failures = 0;               // attempts that ended in a failed epoch
  long long last_restored_epoch = -1;  // -1: final attempt started cold
  long long steps_reached = 0;    // furthest step any attempt completed
  prof::RecoveryStats stats;      // checkpoint / detection / repair costs
};

/// Run the solver for `nsteps` steps on `nranks` ranks, checkpointing every
/// checkpoint.interval steps and transparently recovering from failed
/// attempts. Returns once an attempt completes; rethrows the attempt's
/// exception once max_retries re-launches are exhausted.
RecoveryReport run_with_recovery(int nranks, const core::Config& config,
                                 int nsteps,
                                 const RecoveryPolicy& policy = {},
                                 RecoveryOptions options = {});

}  // namespace cmtbone::resilience

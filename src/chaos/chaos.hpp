#pragma once
// cmtbone::chaos — seeded schedule perturbation and fault injection for the
// in-process message-passing runtime.
//
// The comm runtime's matching engine, deadlock detector, and abort paths are
// normally exercised only under whatever interleaving the OS scheduler
// happens to produce. This module turns the test suite into a concurrency
// oracle: a ChaosPolicy (installed via comm::RunOptions) makes the runtime
// insert bounded, seeded delays at operation hooks and hold/reorder message
// deliveries — without ever violating the per-(source, dest, tag) FIFO
// contract — so rare interleavings are explored on purpose and failing
// schedules can be replayed from a single seed.
//
// Reproducibility contract: every injection decision is a pure hash of
// (seed, stable event identity) — the sender's per-rank operation index, or
// a message's (src, dest, tag, per-stream sequence number) — never of
// wall-clock time or OS scheduling. The engine folds each decision into an
// order-independent digest (commutative sum of hashes), so two runs of the
// same deterministic workload under the same seed produce the same digest
// even though the OS interleaves their threads differently. chaos_stress
// uses that digest as its same-seed-same-schedule check.
//
// Holding a message of stream (src, dest, tagA) while a later
// (src, dest, tagB) message passes keeps MPI's non-overtaking rule, because
// every receive names its source and tag exactly.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmtbone::chaos {

/// Which deterministic per-rank operation a hook fires for.
enum class Hook : std::uint64_t {
  kSend = 1,      // Comm::send_raw entry (covers collective trees too)
  kRecvPost = 2,  // Comm::post_recv_raw entry
  kWait = 3,      // Comm::wait_raw entry
  kProbe = 4,     // Mailbox::probe entry (recv_vector's sizing probe)
};

/// Tunable injection plan. All randomness is derived from `seed`; a policy
/// with zero probabilities and no forced abort only records the digest.
struct ChaosPolicy {
  /// Master seed; every decision hashes this with the event identity.
  std::uint64_t seed = 1;

  /// Chance that a rank-operation hook injects a delay.
  double delay_probability = 0.0;
  /// Upper bound (inclusive, microseconds) on one injected delay, before
  /// the per-rank slowdown factor is applied.
  int max_delay_us = 50;

  /// Chance that Mailbox::deliver holds a message instead of matching it.
  double hold_probability = 0.0;
  /// Upper bound (inclusive) on how many mailbox events a held message
  /// waits before release; bounds guarantee progress.
  int max_hold_ticks = 8;

  /// Per-global-rank multiplier on injected delay durations (empty = all
  /// 1.0). Models a straggler node.
  std::vector<double> rank_slowdown;

  /// Forced fault: `abort_rank` throws ChaosAbortInjected once its
  /// operation counter reaches `abort_at_op` (< 0 disables). Exercises the
  /// abort/unwind paths at a seed-chosen point in the schedule.
  int abort_rank = -1;
  long long abort_at_op = -1;

  /// Step-boundary kill: `kill_rank` throws ChaosAbortInjected from
  /// ChaosEngine::on_step() the first time it reaches step `kill_step`
  /// (< 0 disables). Unlike abort_at_op this fault is by default ONE-SHOT
  /// across the engine's lifetime, so a recovery re-run under the same
  /// engine rides past the kill point and completes — the fault model of a
  /// node that died once and was replaced.
  int kill_rank = -1;
  long long kill_step = -1;

  /// Repeating kill: with kill_period > 0 the fault re-arms after each
  /// fire at `fired_step + kill_period`, modeling a tenant whose node
  /// keeps dying (the service bench's faulty-tenant scenario). At most
  /// kill_max_count fires ever happen, and each fire requires reaching a
  /// strictly larger step than the previous one — a recovery attempt that
  /// replays rolled-back steps is never re-killed at the same point, so a
  /// sufficiently retried job always makes progress. 0 keeps the
  /// historical one-shot behavior.
  long long kill_period = 0;
  int kill_max_count = 1;

  /// Checkpoint-corruption fault: ChaosEngine::corrupt_checkpoint() answers
  /// true for (corrupt_rank, corrupt_epoch), telling the checkpoint
  /// coordinator to damage that rank's just-written primary file. Verifies
  /// the CRC/buddy/older-epoch fallback chain end to end (< 0 disables).
  int corrupt_rank = -1;
  long long corrupt_epoch = -1;

  /// Seed-derived sweep policy: draws every knob (delay/hold probabilities
  /// and bounds, one straggler rank) from `seed` so a seed sweep explores
  /// different perturbation mixes. Seed 0 injects nothing (digest only).
  static ChaosPolicy for_seed(std::uint64_t seed, int nranks);
};

/// Thrown by the engine when the policy's forced abort triggers; unwinds
/// the faulting rank exactly like a user exception, so every other rank
/// must exit via JobAborted instead of hanging.
struct ChaosAbortInjected : std::runtime_error {
  ChaosAbortInjected(int rank, long long op)
      : std::runtime_error("chaos: forced abort injected at rank " +
                           std::to_string(rank) + ", op " +
                           std::to_string(op)) {}

  /// The step-boundary kill variant (ChaosPolicy::kill_step).
  static ChaosAbortInjected at_step(int rank, long long step) {
    return ChaosAbortInjected("chaos: kill injected at rank " +
                              std::to_string(rank) + ", step " +
                              std::to_string(step));
  }

 private:
  explicit ChaosAbortInjected(const std::string& what)
      : std::runtime_error(what) {}
};

/// One engine per comm::run job. The comm layer calls the hooks; callers
/// read the digest after the run. Thread-safe: each rank owns its counter
/// slot, the digest is a commutative atomic accumulator.
class ChaosEngine {
 public:
  ChaosEngine(ChaosPolicy policy, int nranks);

  const ChaosPolicy& policy() const { return policy_; }
  int nranks() const { return int(ranks_.size()); }

  /// Per-rank operation hook (send / recv-post / wait / probe entry). May
  /// sleep a bounded, seeded amount and may throw ChaosAbortInjected.
  /// Must be called WITHOUT the mailbox mutex held (it can sleep).
  void on_rank_op(int rank, Hook hook);

  /// Step-boundary hook, called by the driver's resilience hook after each
  /// completed step. Throws ChaosAbortInjected when `rank` reaches the
  /// policy's next kill point; one-shot by default, re-arming every
  /// kill_period steps (bounded by kill_max_count) when configured.
  void on_step(int rank, long long step);

  /// Step-boundary kills fired so far (across every attempt sharing this
  /// engine).
  long long kill_fires() const {
    return kill_fires_.load(std::memory_order_relaxed);
  }

  /// Should the checkpoint coordinator corrupt `rank`'s just-written
  /// primary file for `epoch`? Pure decision — the coordinator does the
  /// damage (persistent, not one-shot: a rewrite of the same epoch is
  /// corrupted again, as a bad disk would).
  bool corrupt_checkpoint(int rank, long long epoch) const;

  /// Deliver-side decision for the `seq`-th message of stream
  /// (src, tag) -> dest: how many mailbox ticks to hold it (0 = deliver
  /// immediately). Pure (no sleeping); safe under the mailbox lock.
  int hold_ticks(int src, int dest, int tag, std::uint64_t seq,
                 std::size_t bytes);

  /// Order-independent schedule digest: same workload + same seed => same
  /// value, regardless of OS thread interleaving.
  std::uint64_t digest() const {
    return digest_.load(std::memory_order_relaxed);
  }

 private:
  double slowdown(int rank) const;
  void note(std::uint64_t h) {
    digest_.fetch_add(h | 1, std::memory_order_relaxed);
  }

  ChaosPolicy policy_;
  // One counter per global rank, each written only by that rank's thread;
  // padded so neighboring ranks do not share a cache line.
  struct alignas(64) RankState {
    long long ops = 0;
  };
  std::vector<RankState> ranks_;
  std::atomic<std::uint64_t> digest_{0};
  // Next step eligible to fire the kill fault (-1 = disarmed). Advanced
  // past the firing step on every fire so replayed steps never re-fire.
  std::atomic<long long> kill_next_{-1};
  std::atomic<long long> kill_fires_{0};
};

}  // namespace cmtbone::chaos

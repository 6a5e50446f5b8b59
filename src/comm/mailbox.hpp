#pragma once
// Per-rank mailbox: the delivery and matching engine of the runtime.
//
// Each rank owns exactly one mailbox. Senders (other rank threads) call
// deliver(); the owning rank posts receives, waits and probes. A receive
// names its source and tag exactly. Matching follows MPI's rules: a posted
// receive takes the earliest queued message of its (source, tag) stream,
// and an arriving message completes the earliest posted receive for it.
//
// wait() and probe() share one blocking loop, which keeps the runtime's
// failure semantics in one place: it polls the job's abort flag (RankFailed
// or JobAborted), proves deadlocks (DeadlockDetected once every other rank
// has exited) and withdraws a pending receive before every throw.
//
// Chaos integration: when a chaos::ChaosEngine is attached (see
// configure()), deliver() may hold an incoming envelope for a bounded,
// seeded number of mailbox events before it becomes matchable, reordering
// deliveries across streams while preserving per-(source, dest, tag) FIFO.
// The blocking loop pumps the held queue so progress is guaranteed, and
// flushes it before a deadlock verdict (a held message must never be
// mistaken for a missing one).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "chaos/chaos.hpp"
#include "comm/message.hpp"
#include "comm/request.hpp"

namespace cmtbone::comm {

class Mailbox {
 public:
  /// Runtime wiring, called once by the Universe before ranks run: the
  /// owning rank, the job whose state blocked calls poll, and the job's
  /// chaos engine (nullptr = no injection).
  void configure(int owner_rank, const JobControl* job,
                 chaos::ChaosEngine* chaos);

  /// Called from the sender's thread. Either completes a posted receive or
  /// queues the envelope as unexpected. Under chaos the envelope may first
  /// sit in the held queue for a bounded number of mailbox events.
  void deliver(Envelope env);

  /// Post a nonblocking receive of the (src, tag) stream for the owning
  /// rank. If a queued unexpected message matches, the returned request is
  /// already complete.
  Request post_recv(int src, int tag, void* buf, std::size_t capacity);

  /// Block until `req` completes; returns its status. Throws
  /// RankFailed/JobAborted if another rank crashed, or DeadlockDetected if
  /// every other rank already exited. On any of those throws the request is
  /// withdrawn from the pending list first, so no later delivery can write
  /// into a buffer the unwinding caller is about to destroy.
  Status wait(const Request& req);

  /// Withdraw a posted receive (MPI_Cancel analogue): after cancel() no
  /// delivery will ever touch the request's buffer. Safe on null, send, and
  /// already-completed requests (no-op). Callers unwinding with receives
  /// still in flight MUST cancel them before the buffers go out of scope.
  void cancel(const Request& req);

  /// Block until a message of the (src, tag) stream is queued; returns its
  /// metadata without receiving it (MPI_Probe). Fails like wait().
  Status probe(int src, int tag);

 private:
  // The one blocking loop of wait() and probe(): returns once `ready()`
  // holds, pumping chaos holds meanwhile. Throws as wait() documents, after
  // withdrawing `posted` (nullptr for a probe). Caller holds `lock` on mu_.
  template <class Ready>
  void block_locked(std::unique_lock<std::mutex>& lock,
                    const RequestState* posted, int src, int tag,
                    Ready ready);

  // Earliest unexpected envelope of the (src, tag) stream, or nullptr.
  // Caller holds mu_.
  const Envelope* find_unexpected_locked(int src, int tag) const;

  // Copies payload into the receive buffer and fills status. Caller holds mu_.
  static void complete_locked(RequestState& rs, const Envelope& env);

  // Drop one posted receive from pending_ (no-op if absent or null).
  // Caller holds mu_.
  void remove_pending_locked(const RequestState* rs);

  // The pre-chaos deliver(): match a pending receive or queue as
  // unexpected. Caller holds mu_.
  void deliver_locked(Envelope env);

  // Advance the chaos tick and release held envelopes that are due,
  // preserving per-stream order. Caller holds mu_.
  void pump_locked();

  // Release all held envelopes (queue order). Caller holds mu_.
  void flush_held_locked();

  // Release held envelopes of one (src, tag) stream, in order, so an
  // immediately-delivered message never overtakes them. Caller holds mu_.
  void release_stream_locked(int src, int tag);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> unexpected_;
  std::deque<std::shared_ptr<RequestState>> pending_;

  int owner_ = -1;
  const JobControl* job_ = nullptr;

  // --- chaos state (all under mu_) ---------------------------------------
  chaos::ChaosEngine* chaos_ = nullptr;
  std::uint64_t tick_ = 0;
  struct Held {
    Envelope env;
    std::uint64_t due;  // tick at which the envelope becomes deliverable
  };
  std::deque<Held> held_;
  // Per-(src, tag) arrival counters: the stable message identity the
  // engine's hold decision hashes.
  std::map<std::pair<int, int>, std::uint64_t> stream_seq_;
};

}  // namespace cmtbone::comm

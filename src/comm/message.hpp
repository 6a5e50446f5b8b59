#pragma once
// Message envelope and failure types for the in-process message-passing
// runtime.
//
// This runtime substitutes for MPI in the reproduction (no MPI library is
// available in the build environment). There is one communicator, and a
// receive names its partner exactly: it matches on (source, tag), with no
// wildcards, and messages of one (source, dest, tag) stream match in
// sending order (non-overtaking).

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmtbone::comm {

/// User-visible tags must stay below this; the collective implementations
/// use the tag space above it so user p2p traffic can never match
/// collective-internal messages.
inline constexpr int kCollectiveTagBase = 1 << 20;

/// A message in flight from rank `src`.
struct Envelope {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

/// "rank R blocked on recv(src=S, tag=T)" — shared by the failure
/// exceptions so a failing chaos seed is diagnosable from the text alone.
inline std::string blocked_recv_string(int rank, int src, int tag) {
  return "rank " + std::to_string(rank) + " blocked on recv(src=" +
         std::to_string(src) + ", tag=" + std::to_string(tag) + ")";
}

/// Thrown out of blocked operations when another rank aborted with an
/// exception, so the whole job unwinds instead of deadlocking. The detailed
/// form names the unwound rank and the receive it was stuck in.
struct JobAborted : std::runtime_error {
  JobAborted() : std::runtime_error("comm: job aborted by another rank") {}
  JobAborted(int rank, int src, int tag)
      : std::runtime_error("comm: job aborted by another rank; " +
                           blocked_recv_string(rank, src, tag)) {}

 protected:
  explicit JobAborted(const std::string& what) : std::runtime_error(what) {}
};

/// Failure status delivered to survivors: the runtime identified *which*
/// rank died (its body unwound with a non-echo exception), so every peer
/// blocked on it — waits, probes, collective trees, the crystal router —
/// exits with the failed rank and the job's epoch instead of a generic
/// abort or a spurious deadlock verdict. Derives from JobAborted so
/// pre-resilience handlers keep working.
struct RankFailed : JobAborted {
  int failed_rank = -1;
  long long epoch = -1;
  RankFailed(int failed, long long job_epoch)
      : JobAborted("comm: rank " + std::to_string(failed) +
                   " failed (epoch " + std::to_string(job_epoch) + ")"),
        failed_rank(failed),
        epoch(job_epoch) {}
  RankFailed(int failed, long long job_epoch, int rank, int src, int tag)
      : JobAborted("comm: rank " + std::to_string(failed) + " failed (epoch " +
                   std::to_string(job_epoch) + "); " +
                   blocked_recv_string(rank, src, tag)),
        failed_rank(failed),
        epoch(job_epoch) {}
};

/// Thrown out of a blocked operation that can provably never complete:
/// every other rank has already exited its body, so no one is left to send.
/// The usual cause is a collective called inside a rank-conditional block.
/// The text names the blocked rank and the stuck receive's (source, tag)
/// so failing seeds can be diagnosed from it.
struct DeadlockDetected : std::runtime_error {
  DeadlockDetected(int rank, int src, int tag)
      : std::runtime_error(
            "comm: blocked operation cannot complete - all other ranks have "
            "exited; " +
            blocked_recv_string(rank, src, tag) +
            " (collective inside a rank-conditional block?)") {}
};

/// Job-level state blocked operations poll to unwind instead of hanging.
class JobControl {
 public:
  virtual ~JobControl() = default;
  /// True once any rank aborted with an exception.
  virtual bool aborted() const = 0;
  /// True when the calling rank is the only one still running.
  virtual bool last_rank_standing() const = 0;
  /// Rank identified as the failure's origin, or -1 while unknown (abort
  /// seen but the failing rank has not been attributed yet).
  virtual int failed_rank() const { return -1; }
  /// Epoch label the job was launched with (-1 outside recovery).
  virtual long long failure_epoch() const { return -1; }
};

}  // namespace cmtbone::comm

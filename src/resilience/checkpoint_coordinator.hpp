#pragma once
// Coordinated checkpointing, and the only code that names, writes, finds
// and loads checkpoint files. Every K steps all ranks agree on an epoch (an
// allreduce asserts they are at the same step), write CRC32-protected,
// torn-write-safe per-rank checkpoint files, replicate the same bytes to a
// buddy rank whenever there is more than one rank, and prune a two-version
// ring (keep epoch e and e-1). Restore picks the newest *globally complete*
// epoch: one that every rank can produce a CRC-valid copy of, from its
// primary file or its buddy's replica — an epoch some rank only half-wrote
// before dying is never chosen, because that rank cannot vouch for it. The
// bytes themselves come from core::Driver::serialize_checkpoint and go back
// through core::Driver::restore_checkpoint.
//
// File naming: <dir>/<prefix>.e<epoch>.r<rank>.chk for rank's own
// (primary) file, and <dir>/<prefix>.e<epoch>.r<origin>.buddy.chk for the
// replica of `origin`'s payload hosted by origin's buddy (rank origin+1
// mod P). Content under both names is byte-identical.

#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/comm.hpp"
#include "core/driver.hpp"
#include "prof/recovery.hpp"

namespace cmtbone::resilience {

struct CheckpointOptions {
  /// Directory for the checkpoint files; must exist and be writable.
  std::string directory;
  std::string prefix = "ckpt";
  /// Checkpoint every `interval` completed steps (<= 0: only explicit
  /// checkpoint_now() calls write anything).
  int interval = 10;
  /// Chaos fault source for corrupt-checkpoint injection (may be null).
  chaos::ChaosEngine* chaos = nullptr;
  /// Checkpoint cost/restore accounting; written by local rank 0 only.
  prof::RecoveryStats* stats = nullptr;
};

class CheckpointCoordinator {
 public:
  /// Not collective by itself; every method below is collective over `comm`
  /// and must be called by all ranks with the driver in lockstep.
  CheckpointCoordinator(comm::Comm& comm, CheckpointOptions options);

  /// Checkpoint when the driver's step count hits the interval; returns the
  /// committed epoch or -1 when this step is not a checkpoint boundary.
  long long maybe_checkpoint(core::Driver& driver);

  /// Checkpoint unconditionally. The epoch is the (allreduce-agreed) step
  /// count; throws if ranks disagree on it. Returns the epoch.
  long long checkpoint_now(core::Driver& driver);

  /// Roll the driver back to the newest epoch every rank can restore
  /// (CRC-valid primary, else the buddy replica; else the next-older
  /// epoch). Returns the restored epoch, or -1 when no globally complete
  /// epoch exists (caller should initialize fresh).
  long long restore_latest(core::Driver& driver);

  /// Epoch of the last successful checkpoint_now()/restore_latest() on this
  /// rank (-1 when none).
  long long last_epoch() const { return last_epoch_; }

  // --- file naming (exposed for tests and tooling) -----------------------
  static std::string primary_path(const std::string& directory,
                                  const std::string& prefix, long long epoch,
                                  int rank);
  static std::string buddy_path(const std::string& directory,
                                const std::string& prefix, long long epoch,
                                int origin_rank);

 private:
  // Epochs this rank can restore (a CRC-valid primary or buddy replica
  // exists), ascending and unique.
  std::vector<long long> my_restorable_epochs() const;
  // Load `epoch` into the driver (primary first, buddy fallback). Returns
  // false when neither copy is usable; the driver is only mutated on
  // success.
  bool try_load_epoch(core::Driver& driver, long long epoch);
  // Drop this rank's files (primary + hosted replicas) for epochs older
  // than the two newest.
  void prune();

  comm::Comm* comm_;
  CheckpointOptions opt_;
  long long last_epoch_ = -1;
};

}  // namespace cmtbone::resilience

#pragma once
// Accounting for the resilience layer: how fast survivors noticed a dead
// rank, how much checkpointing cost, and how expensive each recovery was
// (steps rolled back, mean time to repair). bench/recovery_study reports
// these next to the checkpoint-interval overhead sweep.

namespace cmtbone::prof {

struct RecoveryStats {
  // --- coordinated checkpointing (written by the coordinator on rank 0) ---
  long long checkpoints = 0;       // epochs committed
  long long checkpoint_bytes = 0;  // primary payload bytes, this rank
  double checkpoint_seconds = 0.0; // agree + serialize + write + replicate

  // --- failure detection (filled by comm::run after the job joins) -------
  long long detections = 0;          // survivor ranks that observed a failure
  double detection_seconds_sum = 0.0;
  double detection_seconds_max = 0.0;

  // --- recovery supervisor ------------------------------------------------
  long long failures = 0;      // attempts that ended in a failed epoch
  long long restores = 0;      // rollbacks that loaded a checkpoint
  long long steps_lost = 0;    // steps recomputed across all rollbacks
  double repair_seconds_sum = 0.0;  // failure observed -> state restored

  /// Accumulate another run's stats into this one (the service scheduler
  /// folds each dispatch's RecoveryReport into the job's lifetime totals).
  void merge(const RecoveryStats& other);

  /// Mean per-survivor latency between a rank dying and a blocked peer
  /// observing it (0 when no failure was detected).
  double mean_detection_seconds() const;
  /// Mean time to repair: failure observed -> rolled-back state restored
  /// (0 when nothing was ever restored).
  double mttr_seconds() const;
};

}  // namespace cmtbone::prof

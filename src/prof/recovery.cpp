#include "prof/recovery.hpp"

namespace cmtbone::prof {

void RecoveryStats::merge(const RecoveryStats& other) {
  checkpoints += other.checkpoints;
  checkpoint_bytes += other.checkpoint_bytes;
  checkpoint_seconds += other.checkpoint_seconds;
  detections += other.detections;
  detection_seconds_sum += other.detection_seconds_sum;
  detection_seconds_max =
      detection_seconds_max > other.detection_seconds_max
          ? detection_seconds_max
          : other.detection_seconds_max;
  failures += other.failures;
  restores += other.restores;
  steps_lost += other.steps_lost;
  repair_seconds_sum += other.repair_seconds_sum;
}

double RecoveryStats::mean_detection_seconds() const {
  return detections > 0 ? detection_seconds_sum / double(detections) : 0.0;
}

double RecoveryStats::mttr_seconds() const {
  return restores > 0 ? repair_seconds_sum / double(restores) : 0.0;
}

}  // namespace cmtbone::prof

#pragma once
// The Universe owns the shared state of one parallel "job": every rank's
// mailbox, the communicator-context allocator, the abort flag, and the
// (optional) trace recorder and chaos engine.

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/mailbox.hpp"
#include "trace/trace.hpp"

namespace cmtbone::comm {

class Universe : public JobControl {
 public:
  explicit Universe(int nranks, trace::Recorder* tracer = nullptr,
                    chaos::ChaosEngine* chaos = nullptr)
      : boxes_(nranks), tracer_(tracer), chaos_(chaos), active_(nranks) {
    for (int r = 0; r < nranks; ++r) {
      boxes_[r] = std::make_unique<Mailbox>();
      boxes_[r]->configure(r, chaos);
    }
  }

  int size() const { return int(boxes_.size()); }

  Mailbox& mailbox(int global_rank) { return *boxes_.at(global_rank); }

  trace::Recorder* tracer() const { return tracer_; }
  chaos::ChaosEngine* chaos() const { return chaos_; }

  /// Allocate a fresh communicator context id (collision-free by
  /// construction). Context 0 is the world communicator.
  int next_ctx() { return ctx_counter_.fetch_add(1); }

  void abort() { aborted_.store(true, std::memory_order_release); }
  bool aborted() const override {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Attribute the job's failure to `rank` (called by the runtime when a
  /// rank's body unwinds with a real exception, or by chaos when it kills a
  /// rank). First writer wins; also raises the abort flag, so peers blocked
  /// on this rank observe RankFailed instead of a bare JobAborted.
  void mark_failed(int rank) {
    int expected = -1;
    if (failed_rank_.compare_exchange_strong(expected, rank,
                                             std::memory_order_acq_rel)) {
      failed_at_ns_.store(now_ns(), std::memory_order_release);
    }
    abort();
  }
  int failed_rank() const override {
    return failed_rank_.load(std::memory_order_acquire);
  }

  /// Epoch label for failure reporting (set once by the runtime before the
  /// rank threads start; -1 outside recovery-supervised runs).
  void set_epoch(long long epoch) { epoch_ = epoch; }
  long long failure_epoch() const override { return epoch_; }

  /// Seconds elapsed since mark_failed(), or a negative value when no
  /// failure has been attributed. Survivors sample this as they observe the
  /// failure — the per-rank detection latency.
  double seconds_since_failure() const {
    const long long at = failed_at_ns_.load(std::memory_order_acquire);
    if (at == 0 || failed_rank() < 0) return -1.0;
    return double(now_ns() - at) * 1e-9;
  }

  void check_abort() const {
    if (!aborted()) return;
    const int failed = failed_rank();
    if (failed >= 0) throw RankFailed(failed, failure_epoch());
    throw JobAborted{};
  }

  /// Called by the runtime when a rank's body returns; enables the
  /// provable-deadlock check in blocked operations.
  void rank_finished() { active_.fetch_sub(1, std::memory_order_acq_rel); }
  bool last_rank_standing() const override {
    return active_.load(std::memory_order_acquire) <= 1;
  }

 private:
  static long long now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  trace::Recorder* tracer_;
  chaos::ChaosEngine* chaos_;
  std::atomic<int> ctx_counter_{1};
  std::atomic<bool> aborted_{false};
  std::atomic<int> failed_rank_{-1};
  std::atomic<long long> failed_at_ns_{0};
  long long epoch_ = -1;
  std::atomic<int> active_{0};
};

}  // namespace cmtbone::comm

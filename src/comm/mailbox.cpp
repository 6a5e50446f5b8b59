#include "comm/mailbox.hpp"

#include <chrono>
#include <set>
#include <stdexcept>
#include "util/bytes.hpp"

namespace cmtbone::comm {

namespace {

// Unwind a blocked operation on an aborted job with the most specific
// exception available: RankFailed once the origin is known, JobAborted
// otherwise. `rank` and the (src, tag) spec name the blocked receive.
[[noreturn]] void throw_blocked_abort(const JobControl& job, int rank,
                                      int src, int tag) {
  const int failed = job.failed_rank();
  if (failed >= 0) {
    throw RankFailed(failed, job.failure_epoch(), rank, src, tag);
  }
  throw JobAborted(rank, src, tag);
}

}  // namespace

void Mailbox::configure(int owner_rank, const JobControl* job,
                        chaos::ChaosEngine* chaos) {
  owner_ = owner_rank;
  job_ = job;
  chaos_ = chaos;
}

void Mailbox::complete_locked(RequestState& rs, const Envelope& env) {
  if (env.payload.size() > rs.capacity) {
    throw std::runtime_error(
        "comm: message truncation (recv buffer " + std::to_string(rs.capacity) +
        " B < message " + std::to_string(env.payload.size()) + " B from src " +
        std::to_string(env.src) + ", tag " + std::to_string(env.tag) + ")");
  }
  util::copy_bytes(rs.buf, env.payload.data(), env.payload.size());
  rs.status.source = env.src;
  rs.status.tag = env.tag;
  rs.status.bytes = env.payload.size();
  rs.done = true;
}

void Mailbox::remove_pending_locked(const RequestState* rs) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->get() == rs) {
      pending_.erase(it);
      return;
    }
  }
}

void Mailbox::cancel(const Request& req) {
  if (!req.valid() || !req.state()->is_recv) return;
  std::lock_guard<std::mutex> lock(mu_);
  remove_pending_locked(req.state());
}

const Envelope* Mailbox::find_unexpected_locked(int src, int tag) const {
  for (const Envelope& env : unexpected_) {
    if (env.src == src && env.tag == tag) return &env;
  }
  return nullptr;
}

void Mailbox::deliver_locked(Envelope env) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    RequestState& rs = **it;
    if (env.src == rs.src && env.tag == rs.tag) {
      complete_locked(rs, env);
      pending_.erase(it);
      cv_.notify_all();
      return;
    }
  }
  unexpected_.push_back(std::move(env));
  // A prober may be sleeping in the blocking loop; wake it.
  cv_.notify_all();
}

void Mailbox::pump_locked() {
  ++tick_;
  if (held_.empty()) return;
  // Release due envelopes front to back. A stream whose earliest held
  // envelope is not yet due blocks its later envelopes, keeping
  // per-(source, dest, tag) FIFO intact.
  std::set<std::pair<int, int>> blocked;
  for (auto it = held_.begin(); it != held_.end();) {
    const std::pair<int, int> key(it->env.src, it->env.tag);
    if (blocked.count(key) != 0) {
      ++it;
      continue;
    }
    if (it->due <= tick_) {
      Envelope env = std::move(it->env);
      it = held_.erase(it);
      deliver_locked(std::move(env));
    } else {
      blocked.insert(key);
      ++it;
    }
  }
}

void Mailbox::flush_held_locked() {
  while (!held_.empty()) {
    Envelope env = std::move(held_.front().env);
    held_.pop_front();
    deliver_locked(std::move(env));
  }
}

void Mailbox::release_stream_locked(int src, int tag) {
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->env.src == src && it->env.tag == tag) {
      Envelope env = std::move(it->env);
      it = held_.erase(it);
      deliver_locked(std::move(env));
    } else {
      ++it;
    }
  }
}

void Mailbox::deliver(Envelope env) {
  std::lock_guard<std::mutex> lock(mu_);
  if (chaos_ != nullptr) {
    pump_locked();
    const std::uint64_t seq = stream_seq_[{env.src, env.tag}]++;
    const int hold =
        chaos_->hold_ticks(env.src, owner_, env.tag, seq, env.payload.size());
    if (hold > 0) {
      held_.push_back({std::move(env), tick_ + std::uint64_t(hold)});
      return;
    }
    // Delivering now: earlier held messages of the same stream must go
    // first so this one never overtakes them.
    if (!held_.empty()) release_stream_locked(env.src, env.tag);
  }
  deliver_locked(std::move(env));
}

Request Mailbox::post_recv(int src, int tag, void* buf, std::size_t capacity) {
  auto rs = std::make_shared<RequestState>();
  rs->is_recv = true;
  rs->src = src;
  rs->tag = tag;
  rs->buf = buf;
  rs->capacity = capacity;

  std::lock_guard<std::mutex> lock(mu_);
  if (chaos_ != nullptr) pump_locked();
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      complete_locked(*rs, *it);
      unexpected_.erase(it);
      return Request(std::move(rs));
    }
  }
  pending_.push_back(rs);
  return Request(std::move(rs));
}

template <class Ready>
void Mailbox::block_locked(std::unique_lock<std::mutex>& lock,
                           const RequestState* posted, int src, int tag,
                           Ready ready) {
  // Poll at a coarse period so a crashed peer (or a provable deadlock)
  // unwinds this rank instead of leaving it blocked forever. Under chaos
  // the period shortens so held envelopes release promptly.
  const auto period = std::chrono::milliseconds(chaos_ != nullptr ? 2 : 20);
  for (;;) {
    if (chaos_ != nullptr) pump_locked();
    if (ready()) return;
    // Job state is read under mu_ right after a failed check: a sender
    // mid-deliver is blocked on this same mutex (so it has not exited
    // yet), which makes "not ready AND everyone else exited" a proof of
    // deadlock rather than a race with in-flight delivery.
    if (job_->aborted()) {
      remove_pending_locked(posted);
      throw_blocked_abort(*job_, owner_, src, tag);
    }
    if (job_->last_rank_standing()) {
      // A held envelope may be the very message this call needs: release
      // everything before concluding that no sender can exist.
      flush_held_locked();
      if (ready()) return;
      remove_pending_locked(posted);
      // The dying rank raises the abort flag *before* decrementing the
      // active count, but this loop loads them in the opposite order, so
      // re-check lest a crashed peer be misreported as a deadlock.
      if (job_->aborted()) throw_blocked_abort(*job_, owner_, src, tag);
      throw DeadlockDetected(owner_, src, tag);
    }
    cv_.wait_for(lock, period, ready);
  }
}

Status Mailbox::wait(const Request& req) {
  if (!req.valid()) return {};
  RequestState& rs = *req.state();
  if (!rs.is_recv) return rs.status;  // sends complete at post time
  std::unique_lock<std::mutex> lock(mu_);
  block_locked(lock, &rs, rs.src, rs.tag, [&rs] { return rs.done; });
  return rs.status;
}

Status Mailbox::probe(int src, int tag) {
  // Probe entry is a deterministic per-rank operation: give chaos its hook
  // (which may sleep or force-abort) before taking the mailbox lock.
  if (chaos_ != nullptr) chaos_->on_rank_op(owner_, chaos::Hook::kProbe);
  std::unique_lock<std::mutex> lock(mu_);
  const Envelope* hit = nullptr;
  block_locked(lock, nullptr, src, tag, [&] {
    return (hit = find_unexpected_locked(src, tag)) != nullptr;
  });
  Status s;
  s.source = hit->src;
  s.tag = hit->tag;
  s.bytes = hit->payload.size();
  return s;
}

}  // namespace cmtbone::comm

#include "comm/comm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace cmtbone::comm {

// ---- construction ----------------------------------------------------------

Comm::Comm(Universe& universe, int rank)
    : uni_(&universe), ctx_(0), rank_(rank) {
  group_.resize(universe.size());
  g2l_.resize(universe.size());
  for (int r = 0; r < universe.size(); ++r) {
    group_[r] = r;
    g2l_[r] = r;
  }
}

Comm::Comm(Universe& universe, int ctx, std::vector<int> group, int my_index)
    : uni_(&universe), ctx_(ctx), rank_(my_index), group_(std::move(group)) {
  g2l_.assign(universe.size(), -1);
  for (int r = 0; r < int(group_.size()); ++r) g2l_[group_[r]] = r;
}

int Comm::local_of_global(int global) const {
  assert(global >= 0 && global < int(g2l_.size()));
  int local = g2l_[global];
  assert(local >= 0 && "message from a rank outside this communicator");
  return local;
}

// ---- profiling --------------------------------------------------------------

void Comm::record(prof::CommOp op, double seconds, long long bytes,
                  int global_peer, int tag,
                  std::span<const Request> completed) const {
  prof::thread_profile().count(op, seconds, bytes);

  trace::Recorder* tracer = uni_->tracer();
  if (tracer == nullptr) return;
  const double t_end = tracer->now();
  const double t_start = t_end - seconds;
  const int me = group_[rank_];
  const prof::TraceRole role = prof::trace_role(op);
  if (role == prof::TraceRole::kSend || role == prof::TraceRole::kSendRecv) {
    tracer->on_send(me, global_peer, tag, bytes, t_start, t_end);
  }
  if (role == prof::TraceRole::kRecvCompletion ||
      role == prof::TraceRole::kSendRecv) {
    // Receives completed inside one call share its blocking interval.
    for (const Request& r : completed) {
      const RequestState* rs = r.state();
      if (rs == nullptr || !rs->is_recv || rs->status.source < 0) continue;
      tracer->on_recv(me, rs->status.source, rs->status.tag,
                      (long long)rs->status.bytes, t_start, t_end);
    }
  }
  if (role == prof::TraceRole::kCollective) {
    tracer->on_collective(me, prof::comm_op_name(op), bytes, t_start, t_end);
  }
}

// ---- raw (unprofiled) p2p ---------------------------------------------------
//
// The chaos hooks live here, below every profiled operation AND inside
// every collective tree (collectives are built from these three calls), so
// one hook site perturbs the whole runtime. Hooks run before the mailbox
// lock is taken — they may sleep or throw ChaosAbortInjected.

void Comm::send_raw(const void* buf, std::size_t bytes, int dest, int tag) {
  uni_->check_abort();
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(group_[rank_], chaos::Hook::kSend);
  }
  assert(dest >= 0 && dest < size());
  Envelope env;
  env.ctx = ctx_;
  env.src = group_[rank_];
  env.tag = tag;
  const auto* p = static_cast<const std::byte*>(buf);
  env.payload.assign(p, p + bytes);
  uni_->mailbox(group_[dest]).deliver(std::move(env));
}

Request Comm::post_recv_raw(void* buf, std::size_t capacity, int src, int tag) {
  uni_->check_abort();
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(group_[rank_], chaos::Hook::kRecvPost);
  }
  int global_src = src == kAnySource ? kAnySource : group_.at(src);
  return my_box().post_recv(ctx_, global_src, tag, buf, capacity);
}

Status Comm::wait_raw(const Request& req) {
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(group_[rank_], chaos::Hook::kWait);
  }
  // Block on the poster's mailbox; job-aware so a crashed peer or a
  // provable deadlock unwinds this rank instead of hanging it.
  return my_box().wait(req, uni_);
}

void Comm::waitall_raw(std::span<Request> reqs) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    try {
      wait_raw(reqs[i]);
    } catch (...) {
      // The mailbox withdrew the request it was waiting on (and a chaos
      // hook may have thrown before the wait even started), so withdraw
      // from i onward: the rest are still posted against buffers this
      // unwind is about to destroy.
      for (std::size_t j = i; j < reqs.size(); ++j) {
        my_box().cancel(reqs[j]);
      }
      throw;
    }
  }
}

// ---- profiled p2p -----------------------------------------------------------

void Comm::send_bytes(const void* buf, std::size_t bytes, int dest, int tag) {
  assert(tag >= 0 && tag < kCollectiveTagBase && "user tags must stay below kCollectiveTagBase");
  prof::WallTimer t;
  send_raw(buf, bytes, dest, tag);
  record(prof::CommOp::kSend, t.seconds(), (long long)bytes, group_[dest],
         tag);
}

Request Comm::isend_bytes(const void* buf, std::size_t bytes, int dest, int tag) {
  assert(tag >= 0 && tag < kCollectiveTagBase);
  prof::WallTimer t;
  // Eager/buffered: the payload is copied out immediately, so the returned
  // request is already complete (matches MPI_Isend + instant MPI_Wait for
  // small messages on a real fabric).
  send_raw(buf, bytes, dest, tag);
  record(prof::CommOp::kIsend, t.seconds(), (long long)bytes, group_[dest],
         tag);
  auto rs = std::make_shared<RequestState>();
  rs->done = true;
  rs->is_recv = false;
  rs->home = &my_box();
  return Request(std::move(rs));
}

Request Comm::isend_payload(std::vector<std::byte>&& payload, int dest,
                            int tag) {
  assert(tag >= 0 && tag < kCollectiveTagBase);
  prof::WallTimer t;
  const long long bytes = (long long)payload.size();
  // Mirror send_raw (abort check + chaos hook before the mailbox), but move
  // the caller's buffer into the envelope instead of copying it — the
  // payload crosses the runtime untouched until the receiver unpacks it.
  uni_->check_abort();
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(group_[rank_], chaos::Hook::kSend);
  }
  assert(dest >= 0 && dest < size());
  Envelope env;
  env.ctx = ctx_;
  env.src = group_[rank_];
  env.tag = tag;
  env.payload = std::move(payload);
  uni_->mailbox(group_[dest]).deliver(std::move(env));
  record(prof::CommOp::kIsend, t.seconds(), bytes, group_[dest], tag);
  auto rs = std::make_shared<RequestState>();
  rs->done = true;
  rs->is_recv = false;
  rs->home = &my_box();
  return Request(std::move(rs));
}

Request Comm::irecv_bytes(void* buf, std::size_t capacity, int src, int tag) {
  prof::WallTimer t;
  Request req = post_recv_raw(buf, capacity, src, tag);
  record(prof::CommOp::kIrecv, t.seconds(), 0);
  return req;
}

Status Comm::recv_bytes(void* buf, std::size_t capacity, int src, int tag) {
  prof::WallTimer t;
  Request req = post_recv_raw(buf, capacity, src, tag);
  Status s = wait_raw(req);
  if (s.source >= 0) s.source = local_of_global(s.source);
  record(prof::CommOp::kRecv, t.seconds(), (long long)s.bytes, -1, 0,
         {&req, 1});
  return s;
}

Status Comm::wait(Request& req) {
  prof::WallTimer t;
  Status s = wait_raw(req);
  if (s.source >= 0) s.source = local_of_global(s.source);
  record(prof::CommOp::kWait, t.seconds(), 0, -1, 0, {&req, 1});
  req = Request();
  return s;
}

void Comm::waitall(std::span<Request> reqs) {
  prof::WallTimer t;
  waitall_raw(reqs);
  record(prof::CommOp::kWaitall, t.seconds(), 0, -1, 0, reqs);
  for (Request& r : reqs) r = Request();
}

int Comm::waitany(std::span<Request> reqs, Status* status) {
  prof::WallTimer t;
  // Completion order is only observable through polling; requests complete
  // under the mailbox lock, so a short poll period costs little and keeps
  // the implementation free of extra per-request condition variables.
  bool doomed_seen = false;
  for (;;) {
    bool any_valid = false;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid()) continue;
      any_valid = true;
      if (my_box().test(reqs[i])) {
        Status s = reqs[i].state()->status;
        record(prof::CommOp::kWaitany, t.seconds(), 0, -1, 0, {&reqs[i], 1});
        if (reqs[i].state()->is_recv && s.source >= 0) {
          s.source = local_of_global(s.source);
        }
        if (status != nullptr) *status = s;
        reqs[i] = Request();
        return int(i);
      }
    }
    if (!any_valid) {
      record(prof::CommOp::kWaitany, t.seconds(), 0);
      return -1;
    }
    try {
      uni_->check_abort();
      // Deliveries happen-before a rank's exit, so one full rescan after
      // observing "everyone else exited" is conclusive. (check_abort ran
      // after the last_rank_standing observation, so a crashed peer has
      // already been reported as RankFailed/JobAborted above, never here.)
      if (doomed_seen) {
        // Name the first still-pending receive so the failure is
        // diagnosable.
        for (const Request& r : reqs) {
          if (r.valid() && r.state()->is_recv) {
            const RequestState& rs = *r.state();
            throw DeadlockDetected(group_[rank_], rs.ctx, rs.src, rs.tag);
          }
        }
        throw DeadlockDetected{};
      }
    } catch (...) {
      // Unwinding with receives still posted: withdraw them so deliveries
      // from ranks that have not yet noticed the failure cannot write into
      // buffers the caller is destroying.
      for (Request& r : reqs) my_box().cancel(r);
      throw;
    }
    if (uni_->last_rank_standing()) {
      // A chaos-held envelope must not masquerade as a missing sender.
      my_box().flush_held();
      doomed_seen = true;
      continue;
    }
    std::this_thread::yield();
  }
}

void Comm::cancel(Request& req) {
  my_box().cancel(req);
  req = Request();
}

bool Comm::test(Request& req) {
  prof::WallTimer t;
  bool done = my_box().test(req);
  record(prof::CommOp::kTest, t.seconds(), 0, -1, 0,
         done ? std::span<const Request>(&req, 1) : std::span<const Request>());
  if (done) req = Request();
  return done;
}

Status Comm::probe(int src, int tag) {
  prof::WallTimer t;
  int global_src = src == kAnySource ? kAnySource : group_.at(src);
  Status s = my_box().probe(ctx_, global_src, tag, uni_);
  if (s.source >= 0) s.source = local_of_global(s.source);
  record(prof::CommOp::kProbe, t.seconds(), 0);
  return s;
}

bool Comm::iprobe(int src, int tag, Status* status) {
  prof::WallTimer t;
  int global_src = src == kAnySource ? kAnySource : group_.at(src);
  bool hit = my_box().iprobe(ctx_, global_src, tag, status);
  if (hit && status != nullptr && status->source >= 0) {
    status->source = local_of_global(status->source);
  }
  record(prof::CommOp::kIprobe, t.seconds(), 0);
  return hit;
}

// ---- collectives -------------------------------------------------------------

void Comm::barrier() {
  prof::WallTimer t;
  const int tag = next_coll_tag();
  const int p = size();
  // Dissemination barrier: ceil(log2 P) rounds; round k signals rank+2^k.
  char token = 0;
  for (int k = 1; k < p; k <<= 1) {
    int dest = (rank_ + k) % p;
    int src = (rank_ - k % p + p) % p;
    send_raw(&token, 1, dest, tag + 0);
    char in = 0;
    wait_raw(post_recv_raw(&in, 1, src, tag + 0));
  }
  record(prof::CommOp::kBarrier, t.seconds(), 0);
}

void Comm::bcast_tree(void* buf, std::size_t bytes, int root, int tag) {
  const int p = size();
  const int vr = (rank_ - root + p) % p;
  // Binomial tree: receive from parent once, then forward to children in
  // decreasing mask order.
  int mask = 1;
  while (mask < p) mask <<= 1;
  // Find the bit where vr receives: lowest set bit of vr.
  if (vr != 0) {
    int recv_mask = vr & -vr;
    int parent = ((vr & ~recv_mask) + root) % p;
    wait_raw(post_recv_raw(buf, bytes, parent, tag));
    mask = recv_mask;
  }
  // Children: vr + m for each m below our receive bit (or below p for root).
  int m = (vr == 0) ? mask : (vr & -vr);
  for (m >>= 1; m > 0; m >>= 1) {
    int child = vr + m;
    if (child < p) {
      send_raw(buf, bytes, (child + root) % p, tag);
    }
  }
}

void Comm::bcast_bytes(void* buf, std::size_t bytes, int root) {
  prof::WallTimer t;
  bcast_tree(buf, bytes, root, next_coll_tag());
  record(prof::CommOp::kBcast, t.seconds(), (long long)bytes);
}

Comm Comm::split(int color, int key) {
  prof::WallTimer t;
  const int p = size();

  // 1. Share (color, key) triples.
  struct Entry {
    int color, key, rank;
  };
  Entry mine{color, key, rank_};
  std::vector<Entry> all = allgather(std::span<const Entry>(&mine, 1));

  // 2. Rank 0 allocates one fresh context per distinct color and shares the
  //    assignment; contexts must be identical across members and unique in
  //    the universe.
  std::vector<int> colors;
  for (const Entry& e : all) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  std::vector<int> ctxs(colors.size(), 0);
  if (rank_ == 0) {
    for (auto& c : ctxs) c = uni_->next_ctx();
  }
  bcast_tree(ctxs.data(), ctxs.size() * sizeof(int), 0, next_coll_tag());

  // 3. Build my group, ordered by (key, parent rank).
  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  std::vector<int> group;
  int my_index = -1;
  for (const Entry& e : members) {
    if (e.rank == rank_) my_index = int(group.size());
    group.push_back(group_[e.rank]);
  }
  assert(my_index >= 0);

  std::size_t color_idx =
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin();
  int ctx = ctxs[color_idx];
  (void)p;
  record(prof::CommOp::kCommSplit, t.seconds(), 0);
  return Comm(*uni_, ctx, std::move(group), my_index);
}

}  // namespace cmtbone::comm

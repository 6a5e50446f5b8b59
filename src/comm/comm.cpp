#include "comm/comm.hpp"

#include <stdexcept>
#include <string>

namespace cmtbone::comm {

Comm::Comm(Universe& universe, int rank) : uni_(&universe), rank_(rank) {}

void Comm::check_p2p(const char* op, int peer, int tag) const {
  if (peer >= 0 && peer < size() && tag >= 0 && tag < kCollectiveTagBase) {
    return;
  }
  throw std::invalid_argument(
      std::string("comm::") + op + ": peer " + std::to_string(peer) +
      ", tag " + std::to_string(tag) + " (peer must be in [0, " +
      std::to_string(size()) + "), tag in [0, " +
      std::to_string(kCollectiveTagBase) + "))");
}

// ---- profiling --------------------------------------------------------------

void Comm::record(prof::CommOp op, double seconds, long long bytes,
                  int peer, int tag,
                  std::span<const Request> completed) const {
  prof::thread_profile().count(op, seconds, bytes);

  trace::Recorder* tracer = uni_->tracer();
  if (tracer == nullptr) return;
  const double t_end = tracer->now();
  const double t_start = t_end - seconds;
  const prof::TraceRole role = prof::trace_role(op);
  if (role == prof::TraceRole::kSend || role == prof::TraceRole::kSendRecv) {
    tracer->on_send(rank_, peer, tag, bytes, t_start, t_end);
  }
  if (role == prof::TraceRole::kRecvCompletion ||
      role == prof::TraceRole::kSendRecv) {
    // Receives completed inside one call share its blocking interval.
    for (const Request& r : completed) {
      const RequestState* rs = r.state();
      if (rs == nullptr || !rs->is_recv || rs->status.source < 0) continue;
      tracer->on_recv(rank_, rs->status.source, rs->status.tag,
                      (long long)rs->status.bytes, t_start, t_end);
    }
  }
  if (role == prof::TraceRole::kCollective) {
    tracer->on_collective(rank_, prof::comm_op_name(op), bytes, t_start, t_end);
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
    eng->on_rank_op(rank_, chaos::Hook::kSend);
  }
  Envelope env;
  env.src = rank_;
  env.tag = tag;
  const auto* p = static_cast<const std::byte*>(buf);
  env.payload.assign(p, p + bytes);
  uni_->mailbox(dest).deliver(std::move(env));
}

Request Comm::post_recv_raw(void* buf, std::size_t capacity, int src, int tag) {
  uni_->check_abort();
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(rank_, chaos::Hook::kRecvPost);
  }
  return my_box().post_recv(src, tag, buf, capacity);
}

Status Comm::wait_raw(const Request& req) {
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    try {
      eng->on_rank_op(rank_, chaos::Hook::kWait);
    } catch (...) {
      // An injected abort before the wait starts: withdraw the receive, or
      // a late delivery writes into a buffer this unwind is destroying.
      my_box().cancel(req);
      throw;
    }
  }
  // Block on the poster's mailbox; job-aware so a crashed peer or a
  // provable deadlock unwinds this rank instead of hanging it.
  return my_box().wait(req);
}

void Comm::waitall_raw(std::span<Request> reqs) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    try {
      wait_raw(reqs[i]);
    } catch (...) {
      // wait_raw withdrew the request it was waiting on (cancelling it
      // again is a no-op); the rest are still posted against buffers this
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
  check_p2p("send", dest, tag);
  prof::WallTimer t;
  send_raw(buf, bytes, dest, tag);
  record(prof::CommOp::kSend, t.seconds(), (long long)bytes, dest, tag);
}

Request Comm::isend_bytes(const void* buf, std::size_t bytes, int dest, int tag) {
  check_p2p("isend", dest, tag);
  prof::WallTimer t;
  // Eager/buffered: the payload is copied out immediately, so the returned
  // request is already complete (matches MPI_Isend + instant MPI_Wait for
  // small messages on a real fabric).
  send_raw(buf, bytes, dest, tag);
  record(prof::CommOp::kIsend, t.seconds(), (long long)bytes, dest, tag);
  auto rs = std::make_shared<RequestState>();
  rs->done = true;
  return Request(std::move(rs));
}

Request Comm::isend_payload(std::vector<std::byte>&& payload, int dest,
                            int tag) {
  check_p2p("isend_payload", dest, tag);
  prof::WallTimer t;
  const long long bytes = (long long)payload.size();
  // Mirror send_raw (abort check + chaos hook before the mailbox), but move
  // the caller's buffer into the envelope instead of copying it — the
  // payload crosses the runtime untouched until the receiver unpacks it.
  uni_->check_abort();
  if (chaos::ChaosEngine* eng = uni_->chaos()) {
    eng->on_rank_op(rank_, chaos::Hook::kSend);
  }
  Envelope env;
  env.src = rank_;
  env.tag = tag;
  env.payload = std::move(payload);
  uni_->mailbox(dest).deliver(std::move(env));
  record(prof::CommOp::kIsend, t.seconds(), bytes, dest, tag);
  auto rs = std::make_shared<RequestState>();
  rs->done = true;
  return Request(std::move(rs));
}

Request Comm::irecv_bytes(void* buf, std::size_t capacity, int src, int tag) {
  check_p2p("irecv", src, tag);
  prof::WallTimer t;
  Request req = post_recv_raw(buf, capacity, src, tag);
  record(prof::CommOp::kIrecv, t.seconds(), 0);
  return req;
}

Status Comm::recv_bytes(void* buf, std::size_t capacity, int src, int tag) {
  check_p2p("recv", src, tag);
  prof::WallTimer t;
  Request req = post_recv_raw(buf, capacity, src, tag);
  Status s = wait_raw(req);
  record(prof::CommOp::kRecv, t.seconds(), (long long)s.bytes, -1, 0,
         {&req, 1});
  return s;
}

Status Comm::wait(Request& req) {
  prof::WallTimer t;
  Status s = wait_raw(req);
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

void Comm::cancel(Request& req) {
  my_box().cancel(req);
  req = Request();
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

}  // namespace cmtbone::comm

#pragma once
// Communicator: the user-facing handle of the message-passing runtime.
//
// Mirrors the slice of MPI that Nek5000/CMT-nek use: tagged point-to-point
// (blocking and nonblocking), wait/waitall/test, probe, and the collectives
// (barrier, bcast, reduce, allreduce, gather, allgather, alltoall(v), scan)
// plus communicator split. Collectives are implemented *algorithmically over
// point-to-point* (binomial trees, dissemination barrier, posted-all
// alltoallv) rather than via shared memory, so the message structure a real
// MPI job would exhibit — counts, sizes, partners — is preserved. That
// structure is what the paper's communication study (Figs 7-10) measures.
//
// Every public operation is timed and counted on the innermost open
// prof::ScopedRegion of the calling rank thread, so "<region>/<op>" is its
// call site, as mpiP attributes time to call sites.

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "comm/message.hpp"
#include "comm/reduce_ops.hpp"
#include "comm/request.hpp"
#include "comm/universe.hpp"
#include "prof/callprof.hpp"
#include "prof/timer.hpp"
#include "util/bytes.hpp"

namespace cmtbone::comm {

class Comm {
 public:
  /// World communicator for `rank` in `universe` (made by comm::run()).
  Comm(Universe& universe, int rank);

  int rank() const { return rank_; }
  int size() const { return int(group_.size()); }
  /// Global (universe) rank of local rank `r`.
  int global_rank(int r) const { return group_[r]; }
  Universe& universe() const { return *uni_; }

  // --- point-to-point (byte-level) ---------------------------------------

  /// Blocking buffered send: copies the payload out and returns. Never
  /// deadlocks on unposted receives (eager semantics).
  void send_bytes(const void* buf, std::size_t bytes, int dest, int tag);
  Request isend_bytes(const void* buf, std::size_t bytes, int dest, int tag);
  /// Zero-copy isend for large payloads: the vector becomes the in-flight
  /// message without the buffered-send copy (the caller packs directly into
  /// it and hands it over). Same eager completion semantics as isend_bytes.
  Request isend_payload(std::vector<std::byte>&& payload, int dest, int tag);
  Request irecv_bytes(void* buf, std::size_t capacity, int src, int tag);
  Status recv_bytes(void* buf, std::size_t capacity, int src, int tag);

  Status wait(Request& req);
  void waitall(std::span<Request> reqs);
  /// Withdraw a posted nonblocking receive (MPI_Cancel analogue) and null
  /// the handle: afterwards no delivery can touch its buffer. Unwinding
  /// code with receives still in flight must cancel them before their
  /// buffers are destroyed. No-op on null/send/completed requests.
  void cancel(Request& req);
  /// Block until at least one request completes; returns its index and
  /// clears it (MPI_Waitany). Null requests are skipped; returns -1 when
  /// every request is null.
  int waitany(std::span<Request> reqs, Status* status = nullptr);
  bool test(Request& req);

  /// Combined send+receive with distinct buffers (MPI_Sendrecv): posts the
  /// receive, performs the (eager, non-blocking) send, then waits.
  template <class T>
  Status sendrecv(std::span<const T> send_data, int dest, int send_tag,
                  std::span<T> recv_data, int src, int recv_tag) {
    prof::WallTimer t;
    Request req = post_recv_raw(recv_data.data(), recv_data.size_bytes(), src,
                                recv_tag);
    send_raw(send_data.data(), send_data.size_bytes(), dest, send_tag);
    Status s = wait_raw(req);
    if (s.source >= 0) s.source = local_of_global(s.source);
    record(prof::CommOp::kSendrecv, t.seconds(),
           (long long)send_data.size_bytes(), group_.at(dest), send_tag,
           {&req, 1});
    return s;
  }
  bool iprobe(int src, int tag, Status* status = nullptr);
  /// Blocking probe (MPI_Probe): returns metadata of the next matching
  /// message without receiving it. Use before a dynamic-size receive.
  Status probe(int src, int tag);

  /// Receive a message whose size the receiver does not know in advance
  /// (probe + sized receive). Returns the payload as elements of T.
  template <class T>
  std::vector<T> recv_vector(int src, int tag) {
    prof::WallTimer t;
    Status ps = my_box().probe(ctx_, src == kAnySource ? kAnySource : group_.at(src),
                               tag, uni_);
    std::vector<T> out(ps.bytes / sizeof(T));
    Request req = my_box().post_recv(ctx_, ps.source, ps.tag, out.data(),
                                     out.size() * sizeof(T));
    wait_raw(req);
    record(prof::CommOp::kRecv, t.seconds(), (long long)ps.bytes, -1, 0,
           {&req, 1});
    return out;
  }

  // --- point-to-point (typed) --------------------------------------------

  template <class T>
  void send(std::span<const T> data, int dest, int tag) {
    send_bytes(data.data(), data.size_bytes(), dest, tag);
  }
  template <class T>
  Request isend(std::span<const T> data, int dest, int tag) {
    return isend_bytes(data.data(), data.size_bytes(), dest, tag);
  }
  template <class T>
  Request irecv(std::span<T> data, int src, int tag) {
    return irecv_bytes(data.data(), data.size_bytes(), src, tag);
  }
  template <class T>
  Status recv(std::span<T> data, int src, int tag) {
    return recv_bytes(data.data(), data.size_bytes(), src, tag);
  }

  // --- collectives ---------------------------------------------------------

  void barrier();

  void bcast_bytes(void* buf, std::size_t bytes, int root);
  template <class T>
  void bcast(std::span<T> data, int root) {
    bcast_bytes(data.data(), data.size_bytes(), root);
  }

  /// In-place elementwise reduction to `root`; other ranks' buffers are
  /// unchanged on exit (their contributions were consumed).
  template <class T>
  void reduce(std::span<T> data, ReduceOp op, int root);

  /// In-place elementwise allreduce.
  template <class T>
  void allreduce(std::span<T> data, ReduceOp op);

  /// Scalar convenience allreduce.
  template <class T>
  T allreduce_one(T value, ReduceOp op) {
    allreduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Gather equal-size contributions to root; returns size()*n elements at
  /// root, empty elsewhere.
  template <class T>
  std::vector<T> gather(std::span<const T> mine, int root);

  /// Variable-size gather to root. Returns concatenated data and fills
  /// `counts` (per-rank element counts) at root.
  template <class T>
  std::vector<T> gatherv(std::span<const T> mine, int root,
                         std::vector<int>* counts = nullptr);

  template <class T>
  std::vector<T> allgather(std::span<const T> mine);

  template <class T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<int>* counts = nullptr);

  /// Personalized all-to-all with equal counts: element block i of `send`
  /// goes to rank i; returns the blocks received, concatenated by source.
  template <class T>
  std::vector<T> alltoall(std::span<const T> send, int count_per_rank);

  /// Personalized all-to-all with per-destination counts. `send_counts[i]`
  /// elements (taken in order from `send`) go to rank i. Fills `recv_counts`
  /// and returns the received data concatenated by source rank.
  template <class T>
  std::vector<T> alltoallv(std::span<const T> send,
                           std::span<const int> send_counts,
                           std::vector<int>* recv_counts = nullptr);

  /// Inclusive prefix scan (sum of ranks 0..rank).
  template <class T>
  T scan_sum(T value);

  /// Split into sub-communicators by color (ranks with equal color end up
  /// in the same comm, ordered by key then parent rank). Collective.
  Comm split(int color, int key);

 private:
  Comm(Universe& universe, int ctx, std::vector<int> group, int my_index);

  Mailbox& my_box() const { return uni_->mailbox(group_[rank_]); }
  int local_of_global(int global) const;

  // Unprofiled internals used by the collectives (so a collective records
  // once, not once per internal message).
  void send_raw(const void* buf, std::size_t bytes, int dest, int tag);
  Request post_recv_raw(void* buf, std::size_t capacity, int src, int tag);
  Status wait_raw(const Request& req);
  // Wait on every request in order; if one wait unwinds (peer failure,
  // abort, provable deadlock), withdraw the not-yet-completed receives so
  // none can later deliver into a buffer the unwind is destroying.
  void waitall_raw(std::span<Request> reqs);
  int next_coll_tag() { return kCollectiveTagBase + (coll_seq_++ & 0xffff); }

  // Count one completed operation on the innermost open region and, when
  // a recorder is attached, trace it by its role (prof::trace_role): a send
  // to `global_peer` (the partner's universe rank) with `tag` and `bytes`,
  // each receive among `completed`, or a collective.
  void record(prof::CommOp op, double seconds, long long bytes,
              int global_peer = -1, int tag = 0,
              std::span<const Request> completed = {}) const;

  // Collective building blocks (binomial trees rooted at `root`).
  void bcast_tree(void* buf, std::size_t bytes, int root, int tag);
  template <class T>
  void reduce_tree(std::span<T> data, ReduceOp op, int root, int tag);

  Universe* uni_;
  int ctx_;
  int rank_;                 // local rank within this communicator
  std::vector<int> group_;   // local rank -> global rank
  std::vector<int> g2l_;     // global rank -> local rank (-1 if absent)
  int coll_seq_ = 0;
};

// ---- template implementations ---------------------------------------------

template <class T>
void Comm::reduce_tree(std::span<T> data, ReduceOp op, int root, int tag) {
  // Binomial tree: relative rank vr folds children vr+2^k before sending to
  // its parent. Ranks exchange whole buffers; combine is elementwise.
  const int p = size();
  const int vr = (rank_ - root + p) % p;
  std::vector<T> incoming(data.size());
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      int child = vr + mask;
      if (child < p) {
        int src = (child + root) % p;
        wait_raw(post_recv_raw(incoming.data(), incoming.size() * sizeof(T),
                               src, tag));
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = apply(op, data[i], incoming[i]);
        }
      }
    } else {
      int parent = ((vr & ~mask) + root) % p;
      send_raw(data.data(), data.size_bytes(), parent, tag);
      break;
    }
    mask <<= 1;
  }
}

template <class T>
void Comm::reduce(std::span<T> data, ReduceOp op, int root) {
  prof::WallTimer t;
  int tag = next_coll_tag();
  reduce_tree(data, op, root, tag);
  record(prof::CommOp::kReduce, t.seconds(), (long long)(data.size_bytes()));
}

template <class T>
void Comm::allreduce(std::span<T> data, ReduceOp op) {
  prof::WallTimer t;
  int tag = next_coll_tag();
  reduce_tree(data, op, /*root=*/0, tag);
  bcast_tree(data.data(), data.size_bytes(), /*root=*/0, next_coll_tag());
  record(prof::CommOp::kAllreduce, t.seconds(), (long long)(data.size_bytes()));
}

template <class T>
std::vector<T> Comm::gather(std::span<const T> mine, int root) {
  prof::WallTimer t;
  const int p = size();
  const int tag = next_coll_tag();
  std::vector<T> out;
  if (rank_ == root) {
    out.resize(mine.size() * std::size_t(p));
    std::vector<Request> reqs;
    reqs.reserve(p - 1);
    for (int r = 0; r < p; ++r) {
      if (r == rank_) {
        util::copy_bytes(out.data() + std::size_t(r) * mine.size(),
                         mine.data(), mine.size_bytes());
      } else {
        reqs.push_back(post_recv_raw(out.data() + std::size_t(r) * mine.size(),
                                     mine.size_bytes(), r, tag));
      }
    }
    waitall_raw(std::span<Request>(reqs));
  } else {
    send_raw(mine.data(), mine.size_bytes(), root, tag);
  }
  record(prof::CommOp::kGather, t.seconds(), (long long)(mine.size_bytes()));
  return out;
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> mine, int root,
                             std::vector<int>* counts) {
  prof::WallTimer t;
  const int p = size();
  const int tag_count = next_coll_tag();
  const int tag_data = next_coll_tag();
  std::vector<T> out;
  if (rank_ == root) {
    std::vector<int> cnt(p);
    cnt[rank_] = int(mine.size());
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      wait_raw(post_recv_raw(&cnt[r], sizeof(int), r, tag_count));
    }
    std::size_t total = 0;
    std::vector<std::size_t> offset(p);
    for (int r = 0; r < p; ++r) {
      offset[r] = total;
      total += std::size_t(cnt[r]);
    }
    out.resize(total);
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == rank_) {
        util::copy_bytes(out.data() + offset[r], mine.data(),
                         mine.size_bytes());
      } else if (cnt[r] > 0) {
        reqs.push_back(post_recv_raw(out.data() + offset[r],
                                     std::size_t(cnt[r]) * sizeof(T), r,
                                     tag_data));
      }
    }
    waitall_raw(std::span<Request>(reqs));
    if (counts != nullptr) *counts = std::move(cnt);
  } else {
    int n = int(mine.size());
    send_raw(&n, sizeof(int), root, tag_count);
    if (n > 0) send_raw(mine.data(), mine.size_bytes(), root, tag_data);
  }
  record(prof::CommOp::kGatherv, t.seconds(), (long long)(mine.size_bytes()));
  return out;
}

template <class T>
std::vector<T> Comm::allgather(std::span<const T> mine) {
  prof::WallTimer t;
  // Gather to 0 then broadcast the concatenation (2 log P latency).
  std::vector<T> all = gather(mine, /*root=*/0);
  if (rank_ != 0) all.resize(mine.size() * std::size_t(size()));
  bcast_tree(all.data(), all.size() * sizeof(T), /*root=*/0, next_coll_tag());
  record(prof::CommOp::kAllgather, t.seconds(), (long long)(mine.size_bytes()));
  return all;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> mine,
                                std::vector<int>* counts) {
  prof::WallTimer t;
  std::vector<int> cnt;
  std::vector<T> all = gatherv(mine, /*root=*/0, &cnt);
  cnt.resize(size());
  bcast_tree(cnt.data(), cnt.size() * sizeof(int), /*root=*/0, next_coll_tag());
  std::size_t total = 0;
  for (int c : cnt) total += std::size_t(c);
  all.resize(total);
  bcast_tree(all.data(), all.size() * sizeof(T), /*root=*/0, next_coll_tag());
  if (counts != nullptr) *counts = std::move(cnt);
  record(prof::CommOp::kAllgatherv, t.seconds(),
         (long long)(mine.size_bytes()));
  return all;
}

template <class T>
std::vector<T> Comm::alltoall(std::span<const T> send, int count_per_rank) {
  std::vector<int> counts(size(), count_per_rank);
  return alltoallv(send, counts);
}

template <class T>
std::vector<T> Comm::alltoallv(std::span<const T> send,
                               std::span<const int> send_counts,
                               std::vector<int>* recv_counts) {
  prof::WallTimer t;
  const int p = size();
  const int tag_count = next_coll_tag();
  const int tag_data = next_coll_tag();

  // Exchange counts first (every pair), then post all receives and sends.
  std::vector<int> rcnt(p, 0);
  {
    std::vector<Request> reqs;
    reqs.reserve(2 * (p - 1));
    for (int r = 0; r < p; ++r) {
      if (r == rank_) {
        rcnt[r] = send_counts[r];
        continue;
      }
      reqs.push_back(post_recv_raw(&rcnt[r], sizeof(int), r, tag_count));
    }
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      send_raw(&send_counts[r], sizeof(int), r, tag_count);
    }
    waitall_raw(std::span<Request>(reqs));
  }

  std::vector<std::size_t> roff(p), soff(p);
  std::size_t rtotal = 0, stotal = 0;
  for (int r = 0; r < p; ++r) {
    roff[r] = rtotal;
    rtotal += std::size_t(rcnt[r]);
    soff[r] = stotal;
    stotal += std::size_t(send_counts[r]);
  }
  std::vector<T> out(rtotal);

  std::vector<Request> reqs;
  reqs.reserve(p - 1);
  for (int r = 0; r < p; ++r) {
    if (r == rank_) {
      util::copy_bytes(out.data() + roff[r], send.data() + soff[r],
                       std::size_t(rcnt[r]) * sizeof(T));
    } else if (rcnt[r] > 0) {
      reqs.push_back(post_recv_raw(out.data() + roff[r],
                                   std::size_t(rcnt[r]) * sizeof(T), r,
                                   tag_data));
    }
  }
  long long sent_bytes = 0;
  for (int r = 0; r < p; ++r) {
    if (r == rank_ || send_counts[r] == 0) continue;
    send_raw(send.data() + soff[r], std::size_t(send_counts[r]) * sizeof(T), r,
             tag_data);
    sent_bytes += (long long)(std::size_t(send_counts[r]) * sizeof(T));
  }
  waitall_raw(std::span<Request>(reqs));

  if (recv_counts != nullptr) *recv_counts = std::move(rcnt);
  record(prof::CommOp::kAlltoallv, t.seconds(), sent_bytes);
  return out;
}

template <class T>
T Comm::scan_sum(T value) {
  prof::WallTimer t;
  const int tag = next_coll_tag();
  // Linear scan: rank r receives the prefix from r-1, adds, forwards.
  T prefix = value;
  if (rank_ > 0) {
    T from_left{};
    wait_raw(post_recv_raw(&from_left, sizeof(T), rank_ - 1, tag));
    prefix = from_left + value;
  }
  if (rank_ + 1 < size()) {
    send_raw(&prefix, sizeof(T), rank_ + 1, tag);
  }
  record(prof::CommOp::kScan, t.seconds(), (long long)sizeof(T));
  return prefix;
}

}  // namespace cmtbone::comm

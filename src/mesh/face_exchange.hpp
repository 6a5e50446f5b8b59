#pragma once
// Nearest-neighbor surface-data exchange for the DG numerical-flux term.
//
// The paper's CMT-bone evaluates the numerical flux "on the surface of the
// elements which involves surface data exchange between nearest neighbors"
// (§IV). This class builds the exchange plan once (which faces are interior
// copies, which cross a partition boundary and to whom) and then moves any
// number of fields per call with Isend/Irecv/Waitall — the message pattern
// the paper's Figs. 8-10 profile. The plan is built from an ElementLayout,
// so the static block decomposition and every rebalanced layout share one
// planner.

#include <vector>

#include "comm/comm.hpp"
#include "mesh/faces.hpp"
#include "mesh/layout.hpp"

namespace cmtbone::mesh {

class FaceExchange {
 public:
  /// Exchange plan over `layout` (the block layout or any of the load
  /// balancer's relayouts): one plan per (face direction, partner rank);
  /// the sender packs its plane in ascending own-gid order and the receiver
  /// unpacks in ascending neighbor-gid order, which enumerate the paired
  /// faces identically on both sides.
  FaceExchange(comm::Comm& comm, const ElementLayout& layout);

  /// Withdraws any receives still posted by an interrupted begin()/finish()
  /// pair (chaos abort, peer failure), so no late delivery writes into the
  /// persistent recv buffers after they are freed.
  ~FaceExchange();
  FaceExchange(const FaceExchange&) = delete;
  FaceExchange& operator=(const FaceExchange&) = delete;

  /// Fill `nbrfaces` with, for every (element, face), the face values of the
  /// geometric neighbor element. Both arrays hold `nfields` stacked face
  /// arrays of face_array_size(n, nel) doubles each. Faces on a physical
  /// (non-periodic) boundary receive the element's own face values.
  /// Equivalent to begin() immediately followed by finish().
  void exchange(const double* myfaces, double* nbrfaces, int nfields);

  /// Split-phase half of exchange(): post all receives, pack and send every
  /// remote plane, and perform the local (same-rank and physical-boundary)
  /// copies into `nbrfaces`, then return with the remote messages still in
  /// flight. Faces of interior elements — and locally-paired faces of
  /// boundary elements — are valid in `nbrfaces` as soon as begin() returns;
  /// remotely-paired faces only after finish(). `myfaces` is fully packed
  /// before returning and may be reused; `nbrfaces` must stay alive until
  /// finish(). At most one exchange may be in flight per FaceExchange:
  /// begin() throws std::logic_error while one is, before posting
  /// anything, and that exchange still completes at finish().
  void begin(const double* myfaces, double* nbrfaces, int nfields);

  /// Complete the exchange started by begin(): wait for the remote planes
  /// and unpack them into the `nbrfaces` passed to begin(). No-op when no
  /// exchange is in flight.
  void finish();

  /// True between begin() and the matching finish().
  bool in_flight() const { return pending_nbrfaces_ != nullptr; }

  /// Payload bytes this rank sends per exchange call.
  long long send_bytes_per_exchange(int nfields) const;

  /// Number of distinct remote partners (<= 6 on a structured partition).
  int remote_partner_count() const;

  /// Threads (including the caller) used for the pack/local-copy/unpack
  /// loops. Each (field, face) slot is copied exactly once to a disjoint
  /// destination, so the copies are bit-identical for every value.
  void set_threads(int threads) { threads_ = threads < 1 ? 1 : threads; }

 private:
  // Withdraw posted receives and clear the in-flight state (unwind path).
  void abandon_exchange();

  struct LocalCopy {
    int src_e, src_f;  // read myfaces(src_e, src_f)
    int dst_e, dst_f;  // write nbrfaces(dst_e, dst_f)
  };

  struct DirPlan {
    int dir = -1;      // my face id whose neighbors live on `partner`
    int partner = -1;  // remote rank
    std::vector<int> elems;  // pack order: my elements, ascending local index
    // Unpack order: the same elements sorted by their dir-neighbor's gid —
    // the order the partner packed its (opposite-face) plane in. Identical
    // to `elems` for the block layout.
    std::vector<int> recv_elems;
  };

  comm::Comm* comm_;
  int n_ = 0;
  int nel_ = 0;
  int threads_ = 1;
  std::vector<LocalCopy> local_;
  std::vector<DirPlan> plans_;
  // Send planes are packed straight into byte payloads that are moved into
  // the runtime (comm::Comm::isend_payload), so there is no persistent send
  // buffer; receive buffers persist across steps (resize only ever grows).
  std::vector<std::vector<double>> recvbuf_;  // one per plan

  // Split-phase state between begin() and finish().
  std::vector<comm::Request> recv_reqs_;
  double* pending_nbrfaces_ = nullptr;
  int pending_nfields_ = 0;
};

}  // namespace cmtbone::mesh

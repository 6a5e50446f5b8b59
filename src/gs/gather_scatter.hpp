#pragma once
// The gather-scatter handle: gs_setup + gs_op, reproducing Nek5000's gslib
// as CMT-bone exercises it.
//
// A gs_op reduces, over every set of coincident GLL points (same global
// id), the values held by all their local copies — across elements and
// across ranks — and writes the result back to every copy. It proceeds in
// three phases:
//   1. local gather: fold this rank's duplicate copies into one value/id,
//   2. nonlocal exchange: combine with the other sharer ranks using one of
//      three algorithms — pairwise exchange, crystal router, or
//      allreduce-on-a-big-vector (paper §VI),
//   3. local scatter: write the reduced value back to every local copy.
//
// A gs_op runs to completion inside one call: exec() for one field,
// exec_many() for several fields in the same messages. Nothing is in flight
// between calls, so a handle holds no posted receive when it is destroyed.
//
// At construction with Method::kAuto the handle times all three algorithms
// and keeps the fastest, exactly as CMT-nek/Nek5000 do at startup ("At the
// beginning of each simulation, three gather-scatter methods are evaluated
// to determine which one performs the best for the given problem setup and
// machine"). The tuning table is retained — it is the content of Fig. 7.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "gs/crystal.hpp"
#include "gs/topology.hpp"
#include "netmodel/loggp.hpp"

namespace cmtbone::gs {

using comm::ReduceOp;

/// kAuto times all three algorithms at setup and keeps the fastest, so the
/// handle always ends up running one of the three concrete algorithms and
/// its results are bit-identical to forcing that method directly.
enum class Method { kPairwise, kCrystalRouter, kAllReduce, kAuto };

const char* method_name(Method m);

class GatherScatter {
 public:
  /// Collective. `slot_ids`: one global id per local data slot. With
  /// kAuto, runs the startup tuning pass and picks the fastest method.
  ///
  /// `slot_keys`, when non-empty (one key per slot, globally unique across
  /// all ranks' slots), switches the handle to *ordered* mode: every
  /// gs_op folds the copies of each id in ascending-key order, starting
  /// from the op identity, no matter which rank holds which copy. Keys
  /// derive from global mesh coordinates (mesh::global_gll_keys), so the
  /// reduction order — and hence every result bit — is invariant under
  /// element migration between ranks: the load balancer's "migration
  /// changes *where*, never *what*" anchor. Ordered mode exchanges raw
  /// per-copy values with each sharer (a pairwise pattern, slightly larger
  /// messages for edge/corner ids), so an ordered handle's method() is
  /// kPairwise whatever was requested.
  GatherScatter(comm::Comm& comm, std::span<const long long> slot_ids,
                Method method = Method::kAuto,
                std::span<const long long> slot_keys = {});

  /// True when constructed with per-slot keys (layout-invariant folds).
  bool ordered() const { return ordered_; }

  GatherScatter(const GatherScatter&) = delete;
  GatherScatter& operator=(const GatherScatter&) = delete;

  /// gs_op: in-place gather-scatter over `values` (one per slot).
  /// Equivalent to exec_many(values, 1, op).
  void exec(std::span<double> values, ReduceOp op);

  /// gs_op over `nfields` fields at once (Nek's gs_op_fields): `values`
  /// holds the fields back to back, each one slot-count long. All fields of
  /// a shared id travel in the same message, so per-exec message *count*
  /// stays flat while payload scales with nfields — the batching CMT-nek
  /// relies on when exchanging the five conserved variables.
  ///
  /// One pipeline serves every method and mode: the local gather into
  /// buffers the handle keeps across calls, then the crystal router, the
  /// allreduce, or the pairwise exchange (post every receive, pack and send
  /// each neighbor's values, wait, fold the remote contributions in
  /// neighbor order or by the ordered merge program), then the scatter back
  /// into `values`. Throws std::invalid_argument, before anything is
  /// posted, unless nfields >= 1 and `values` holds nfields × slot-count
  /// values. A throw from the exchange (a chaos abort, a peer failure)
  /// withdraws every receive it posted before it propagates.
  void exec_many(std::span<double> values, int nfields, ReduceOp op);

  Method method() const { return method_; }
  const Topology& topology() const { return topo_; }

  /// Per-method startup timing (seconds per gs_op), reduced across ranks.
  /// Populated by the kAuto constructor or tune(); the rows of Fig. 7.
  struct TuneRow {
    Method method = Method::kPairwise;
    double avg = 0, min = 0, max = 0;  // across ranks
  };
  const std::vector<TuneRow>& tuning() const { return tuning_; }

  /// Run (or re-run) the startup tuning pass; returns the winner. Ordered
  /// handles run one fixed exchange and return it untimed.
  Method tune(int repetitions = 5);

  /// This rank's exchange structure as the analytic network model sees it
  /// (ranks, pairwise partners and bytes, crystal records, big-vector
  /// bytes): the input to netmodel::predict_all.
  netmodel::ExchangeShape exchange_shape() const;

  // --- structure queries (for the communication-model benches) -----------
  /// Ranks this rank exchanges with under the pairwise method.
  std::vector<int> pairwise_neighbors() const;
  /// Values this rank sends per pairwise exec.
  std::size_t pairwise_send_values() const;
  /// Size (in values) of the allreduce method's big vector (the whole
  /// global id space, as in gslib).
  long long big_vector_size() const { return topo_.total_global; }

 private:
  // Ordered mode: build the per-id fold programs from per-slot keys
  // (called at construction when slot_keys is non-empty).
  void setup_ordered(std::span<const long long> slot_keys);

  // The pipeline's stages over op_, in exec_many's order.
  //
  // Local gather into op_.unique (one value per unique id per field, id
  // major). Unordered: every slot folds into its id. Ordered: private ids
  // fold their copies in key order; shared ids stage raw copies in op_.mine.
  void gather(std::span<const double> values);
  // The pairwise exchange, in place on op_.unique: post_and_send(), wait,
  // fold(). Withdraws its posted receives when anything in it throws.
  void exec_pairwise();
  // Post every pairwise receive and send each neighbor its values: one
  // gathered value per shared id, or (ordered) every raw copy of it.
  void post_and_send();
  // Fold the received values into op_.unique: neighbor-order accumulate,
  // or (ordered) each shared id's merge program over all its copies.
  void fold();
  // Write op_.unique back to every slot of op_.values.
  void scatter();
  // The two collective exchanges, in place on op_.unique.
  void exec_crystal();
  void exec_allreduce();

  comm::Comm* comm_;
  Topology topo_;
  Method method_;
  std::vector<TuneRow> tuning_;

  // --- ordered-mode fold programs (empty unless ordered_) -----------------
  bool ordered_ = false;
  // Local slots grouped by unique id, each group sorted ascending by key:
  // unique u's slots are ordered_slots_[ordered_begin_[u] .. ordered_begin_[u+1]).
  std::vector<int> ordered_slots_;
  std::vector<int> ordered_begin_;
  // Per unique id: its topo_.shared entry, or -1 when private to this rank.
  std::vector<int> shared_of_unique_;
  // My copies of shared entry s occupy flat-buffer positions
  // [my_copy_offset_[s], my_copy_offset_[s+1]) — same slot order as above.
  std::vector<int> my_copy_offset_;
  // Copies each pairwise neighbor sends me per exec (neighbors in
  // pairwise_plan_ map order, the order recv buffers are indexed by).
  std::vector<std::size_t> nbr_copy_total_;
  // Merge program: shared entry s folds steps
  // [merge_begin_[s], merge_begin_[s+1]) in ascending-key order.
  struct MergeStep {
    int src;  // -1 = my flat copy buffer, else neighbor position in plan order
    int idx;  // copy index within that source buffer
  };
  std::vector<MergeStep> merge_steps_;
  std::vector<int> merge_begin_;

  // Pairwise plan: per neighbor rank, the shared entries (as indices into
  // topo_.shared, whose id order both sides agree on).
  std::map<int, std::vector<int>> pairwise_plan_;

  // Crystal plan: owner of each shared entry (min rank of the sharer set,
  // including me); shared entries I own, keyed for arrival-time lookup.
  std::vector<int> owner_;                    // per shared entry
  std::vector<long long> owned_ids_;          // ascending ids I own
  std::vector<int> owned_shared_entry_;       // topo_.shared index per owned id
  CrystalRouter router_;

  // The gs_op exec_many() is running. The gather, pack and receive
  // buffers persist across calls, so a steady-state time step allocates
  // nothing on this path.
  struct OpState {
    std::span<double> values;
    std::size_t nfields = 0;
    ReduceOp op = ReduceOp::kSum;
    std::vector<double> unique;
    std::vector<double> mine;  // ordered mode: my shared copies, flat
    std::vector<std::vector<double>> sendbuf, recvbuf;  // one per neighbor
    std::vector<comm::Request> reqs;
  };
  OpState op_;
};

}  // namespace cmtbone::gs

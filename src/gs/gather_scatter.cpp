#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "prof/timer.hpp"
#include "util/bytes.hpp"

namespace cmtbone::gs {

namespace {
constexpr int kPairwiseTag = 7;
// Ordered-mode setup handshake (copy counts, then copy keys, per neighbor).
constexpr int kOrderedCountTag = 8;
constexpr int kOrderedKeyTag = 9;

double identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return 0.0;
    case ReduceOp::kProd: return 1.0;
    case ReduceOp::kMin: return std::numeric_limits<double>::max();
    case ReduceOp::kMax: return std::numeric_limits<double>::lowest();
  }
  return 0.0;
}
}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kPairwise: return "pairwise exchange";
    case Method::kCrystalRouter: return "crystal router";
    case Method::kAllReduce: return "all_reduce";
    case Method::kAuto: return "auto";
  }
  return "?";
}

GatherScatter::GatherScatter(comm::Comm& comm,
                             std::span<const long long> slot_ids, Method method,
                             std::span<const long long> slot_keys)
    : comm_(&comm),
      topo_(gs_setup(comm, slot_ids)),
      method_(method),
      router_(comm) {
  // Pairwise plan: topo_.shared is sorted by id, so appending in order gives
  // both sides of every pair an identical per-neighbor id ordering.
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    for (int r : topo_.shared[s].sharers) {
      pairwise_plan_[r].push_back(int(s));
    }
  }

  // Crystal plan: owner = min rank of the sharer set (which includes me).
  owner_.resize(topo_.shared.size());
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const SharedId& sh = topo_.shared[s];
    int owner = comm.rank();
    if (!sh.sharers.empty()) owner = std::min(owner, sh.sharers.front());
    owner_[s] = owner;
    if (owner == comm.rank()) {
      owned_ids_.push_back(sh.id);
      owned_shared_entry_.push_back(int(s));
    }
  }

  if (!slot_keys.empty()) setup_ordered(slot_keys);

  // Ordered mode always runs its own pairwise-pattern exchange, so that is
  // its method; kAuto would time algorithms the handle never uses.
  if (ordered_) {
    method_ = Method::kPairwise;
  } else if (method_ == Method::kAuto) {
    tune();
  }
}

// --- ordered mode -----------------------------------------------------------
//
// Setup builds, per global id, a canonical fold *program* over all of the
// id's copies, ordered by each copy's globally-unique key. At exec time
// every sharer of an id receives every other sharer's raw copy values and
// folds the full copy list (its own included) in ascending-key order,
// starting from the op identity. A private id folds its local copies the
// same way. Since the (key, value) multiset of an id's copies does not
// depend on which rank holds which copy, neither does the fold — the bits
// are invariant under element migration.

void GatherScatter::setup_ordered(std::span<const long long> slot_keys) {
  ordered_ = true;
  const std::size_t nunique = topo_.unique_ids.size();
  const std::size_t nslots = topo_.unique_of_slot.size();

  // Slots grouped by unique id, ascending by key within each group.
  std::vector<int> count(nunique, 0);
  for (std::size_t s = 0; s < nslots; ++s) ++count[topo_.unique_of_slot[s]];
  ordered_begin_.assign(nunique + 1, 0);
  for (std::size_t u = 0; u < nunique; ++u) {
    ordered_begin_[u + 1] = ordered_begin_[u] + count[u];
  }
  ordered_slots_.resize(nslots);
  std::vector<int> cursor(ordered_begin_.begin(), ordered_begin_.end() - 1);
  for (std::size_t s = 0; s < nslots; ++s) {
    ordered_slots_[cursor[topo_.unique_of_slot[s]]++] = int(s);
  }
  for (std::size_t u = 0; u < nunique; ++u) {
    std::sort(ordered_slots_.begin() + ordered_begin_[u],
              ordered_slots_.begin() + ordered_begin_[u + 1],
              [&](int a, int b) { return slot_keys[a] < slot_keys[b]; });
  }

  shared_of_unique_.assign(nunique, -1);
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    shared_of_unique_[topo_.shared[s].unique_index] = int(s);
  }
  my_copy_offset_.assign(topo_.shared.size() + 1, 0);
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const int u = topo_.shared[s].unique_index;
    my_copy_offset_[s + 1] =
        my_copy_offset_[s] + (ordered_begin_[u + 1] - ordered_begin_[u]);
  }

  // Handshake with each pairwise neighbor: my per-entry copy counts, then
  // the copy keys (each entry's keys already ascending). Both sides walk
  // the shared entries in the same (id) order, so arrays line up.
  const std::size_t nnbr = pairwise_plan_.size();
  std::vector<std::vector<int>> send_counts(nnbr), recv_counts(nnbr);
  std::vector<comm::Request> reqs;
  reqs.reserve(nnbr);
  std::size_t b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    recv_counts[b].resize(entries.size());
    reqs.push_back(comm_->irecv(std::span<int>(recv_counts[b]), neighbor,
                                kOrderedCountTag));
    ++b;
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    std::vector<int>& sc = send_counts[b++];
    sc.reserve(entries.size());
    for (int s : entries) {
      sc.push_back(my_copy_offset_[s + 1] - my_copy_offset_[s]);
    }
    comm_->isend(std::span<const int>(sc), neighbor, kOrderedCountTag);
  }
  comm_->waitall(reqs);

  nbr_copy_total_.assign(nnbr, 0);
  for (std::size_t i = 0; i < nnbr; ++i) {
    for (int c : recv_counts[i]) nbr_copy_total_[i] += std::size_t(c);
  }

  std::vector<std::vector<long long>> send_keys(nnbr), recv_keys(nnbr);
  reqs.clear();
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    (void)entries;
    recv_keys[b].resize(nbr_copy_total_[b]);
    reqs.push_back(comm_->irecv(std::span<long long>(recv_keys[b]), neighbor,
                                kOrderedKeyTag));
    ++b;
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    std::vector<long long>& sk = send_keys[b++];
    for (int s : entries) {
      const int u = topo_.shared[s].unique_index;
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        sk.push_back(slot_keys[ordered_slots_[i]]);
      }
    }
    comm_->isend(std::span<const long long>(sk), neighbor, kOrderedKeyTag);
  }
  comm_->waitall(reqs);

  // Merge program: per shared entry, every copy (mine and each sharer's)
  // sorted ascending by key. Keys are globally unique, so every sharer
  // derives the identical order from the identical key multiset.
  struct Cand {
    long long key;
    int src, idx;
  };
  std::vector<std::vector<Cand>> cand(topo_.shared.size());
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const int u = topo_.shared[s].unique_index;
    for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
      cand[s].push_back({slot_keys[ordered_slots_[i]], -1,
                         my_copy_offset_[s] + (i - ordered_begin_[u])});
    }
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    (void)neighbor;
    int pos = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (int j = 0; j < recv_counts[b][i]; ++j) {
        cand[entries[i]].push_back({recv_keys[b][pos], int(b), pos});
        ++pos;
      }
    }
    ++b;
  }
  merge_begin_.assign(topo_.shared.size() + 1, 0);
  merge_steps_.clear();
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    std::sort(cand[s].begin(), cand[s].end(),
              [](const Cand& a, const Cand& c) { return a.key < c.key; });
    for (const Cand& c : cand[s]) merge_steps_.push_back({c.src, c.idx});
    merge_begin_[s + 1] = int(merge_steps_.size());
  }
}

// --- the gs_op pipeline -------------------------------------------------------

void GatherScatter::exec(std::span<double> values, ReduceOp op) {
  exec_many(values, 1, op);
}

void GatherScatter::exec_many(std::span<double> values, int nfields,
                              ReduceOp op) {
  const std::size_t slots = topo_.unique_of_slot.size();
  if (nfields < 1 || values.size() != std::size_t(nfields) * slots) {
    throw std::invalid_argument(
        "GatherScatter::exec_many: got " + std::to_string(values.size()) +
        " values for nfields = " + std::to_string(nfields) + " over " +
        std::to_string(slots) + " slots; need nfields >= 1 and nfields x "
        "slots values");
  }
  op_.values = values;
  op_.nfields = std::size_t(nfields);
  op_.op = op;
  gather(values);
  // The collective methods leave no receive posted when they return or
  // unwind; the pairwise exchange withdraws its own.
  if (method_ == Method::kCrystalRouter) {
    exec_crystal();
  } else if (method_ == Method::kAllReduce) {
    exec_allreduce();
  } else {
    exec_pairwise();
  }
  scatter();
}

void GatherScatter::gather(std::span<const double> values) {
  const std::size_t slots = topo_.unique_of_slot.size();
  const std::size_t nf = op_.nfields;
  const ReduceOp op = op_.op;
  op_.unique.assign(topo_.unique_ids.size() * nf, identity(op));
  double* unique = op_.unique.data();
  if (!ordered_) {
    for (std::size_t s = 0; s < slots; ++s) {
      double* u = unique + topo_.unique_of_slot[s] * nf;
      for (std::size_t f = 0; f < nf; ++f) {
        u[f] = comm::apply(op, u[f], values[f * slots + s]);
      }
    }
    return;
  }
  op_.mine.resize(std::size_t(my_copy_offset_.back()) * nf);
  for (std::size_t u = 0; u < topo_.unique_ids.size(); ++u) {
    const int s = shared_of_unique_[u];
    if (s < 0) {
      // Private id: fold local copies ascending by key — the same sequence
      // the merge program would produce were the copies split across ranks.
      double* uv = unique + u * nf;
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        const std::size_t slot = std::size_t(ordered_slots_[i]);
        for (std::size_t f = 0; f < nf; ++f) {
          uv[f] = comm::apply(op, uv[f], values[f * slots + slot]);
        }
      }
    } else {
      // Shared id: stage raw copies; folding happens after the exchange.
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        const std::size_t slot = std::size_t(ordered_slots_[i]);
        double* dst =
            op_.mine.data() +
            (std::size_t(my_copy_offset_[s]) + (i - ordered_begin_[u])) * nf;
        for (std::size_t f = 0; f < nf; ++f) dst[f] = values[f * slots + slot];
      }
    }
  }
}

void GatherScatter::exec_pairwise() {
  try {
    post_and_send();
    comm_->waitall(op_.reqs);
  } catch (...) {
    // A chaos abort or peer failure can fire from the hooks inside
    // irecv/isend/wait with receives still posted: withdraw them, so
    // nothing delivers into this handle's buffers after the unwind.
    for (comm::Request& r : op_.reqs) comm_->cancel(r);
    op_.reqs.clear();
    throw;
  }
  op_.reqs.clear();
  fold();
}

void GatherScatter::post_and_send() {
  const std::size_t nf = op_.nfields;
  op_.sendbuf.resize(pairwise_plan_.size());
  op_.recvbuf.resize(pairwise_plan_.size());
  op_.reqs.clear();
  op_.reqs.reserve(pairwise_plan_.size());
  std::size_t b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    std::vector<double>& rb = op_.recvbuf[b];
    rb.resize((ordered_ ? nbr_copy_total_[b] : entries.size()) * nf);
    op_.reqs.push_back(
        comm_->irecv(std::span<double>(rb), neighbor, kPairwiseTag));
    // Pack before any accumulation: each pair must see the peer's locally
    // gathered values, not partially reduced ones.
    std::vector<double>& sb = op_.sendbuf[b];
    sb.clear();
    for (int s : entries) {
      const double* src;
      std::size_t count;
      if (ordered_) {
        src = op_.mine.data() + std::size_t(my_copy_offset_[s]) * nf;
        count = std::size_t(my_copy_offset_[s + 1] - my_copy_offset_[s]) * nf;
      } else {
        src = op_.unique.data() + topo_.shared[s].unique_index * nf;
        count = nf;
      }
      sb.insert(sb.end(), src, src + count);
    }
    comm_->isend(std::span<const double>(sb), neighbor, kPairwiseTag);
    ++b;
  }
}

void GatherScatter::fold() {
  const std::size_t nf = op_.nfields;
  const ReduceOp op = op_.op;
  if (!ordered_) {
    // Accumulate in neighbor order, so the floating-point reduction order
    // is fixed by the plan.
    std::size_t b = 0;
    for (const auto& [neighbor, entries] : pairwise_plan_) {
      const std::vector<double>& buf = op_.recvbuf[b++];
      for (std::size_t i = 0; i < entries.size(); ++i) {
        double* u =
            op_.unique.data() + topo_.shared[entries[i]].unique_index * nf;
        for (std::size_t f = 0; f < nf; ++f) {
          u[f] = comm::apply(op, u[f], buf[i * nf + f]);
        }
      }
    }
    return;
  }
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    double* uv =
        op_.unique.data() + std::size_t(topo_.shared[s].unique_index) * nf;
    for (int m = merge_begin_[s]; m < merge_begin_[s + 1]; ++m) {
      const MergeStep& st = merge_steps_[m];
      const double* v =
          (st.src < 0 ? op_.mine.data() : op_.recvbuf[st.src].data()) +
          std::size_t(st.idx) * nf;
      for (std::size_t f = 0; f < nf; ++f) {
        uv[f] = comm::apply(op, uv[f], v[f]);
      }
    }
  }
}

void GatherScatter::scatter() {
  const std::size_t slots = topo_.unique_of_slot.size();
  const std::size_t nf = op_.nfields;
  const double* unique = op_.unique.data();
  double* values = op_.values.data();
  for (std::size_t s = 0; s < slots; ++s) {
    const double* u = unique + topo_.unique_of_slot[s] * nf;
    for (std::size_t f = 0; f < nf; ++f) values[f * slots + s] = u[f];
  }
}

// --- crystal router ----------------------------------------------------------

namespace {
// Crystal records carry the id followed by nfields values; the byte-level
// router keeps the record size dynamic per exec.
void append_record(std::vector<std::byte>* buf, long long id,
                   const double* values, std::size_t nf) {
  std::size_t old = buf->size();
  buf->resize(old + sizeof(long long) + nf * sizeof(double));
  util::copy_bytes(buf->data() + old, &id, sizeof(long long));
  util::copy_bytes(buf->data() + old + sizeof(long long), values,
                   nf * sizeof(double));
}

inline long long record_id(const std::byte* rec) {
  long long id;
  util::copy_bytes(&id, rec, sizeof(long long));
  return id;
}

const double* record_values(const std::byte* rec) {
  return reinterpret_cast<const double*>(rec + sizeof(long long));
}
}  // namespace

void GatherScatter::exec_crystal() {
  const int me = comm_->rank();
  const std::size_t nf = op_.nfields;
  const ReduceOp op = op_.op;
  double* unique = op_.unique.data();
  const std::size_t record_bytes = sizeof(long long) + nf * sizeof(double);

  // Pass 1: every sharer ships its gathered values to the id's owner.
  std::vector<std::byte> outbound;
  std::vector<int> outbound_dest;
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    if (owner_[s] == me) continue;
    append_record(&outbound, topo_.shared[s].id,
                  unique + topo_.shared[s].unique_index * nf, nf);
    outbound_dest.push_back(owner_[s]);
  }
  std::vector<std::byte> arrived =
      router_.route(outbound, outbound_dest, record_bytes);

  // Owner-side reduction into the owned entries.
  for (std::size_t pos = 0; pos < arrived.size(); pos += record_bytes) {
    const std::byte* rec = arrived.data() + pos;
    auto it = std::lower_bound(owned_ids_.begin(), owned_ids_.end(),
                               record_id(rec));
    int s = owned_shared_entry_[it - owned_ids_.begin()];
    double* u = unique + topo_.shared[s].unique_index * nf;
    const double* v = record_values(rec);
    for (std::size_t f = 0; f < nf; ++f) u[f] = comm::apply(op, u[f], v[f]);
  }

  // Pass 2: owners ship the reduced results back to every other sharer.
  std::vector<std::byte> results;
  std::vector<int> results_dest;
  for (std::size_t o = 0; o < owned_ids_.size(); ++o) {
    int s = owned_shared_entry_[o];
    const double* u = unique + topo_.shared[s].unique_index * nf;
    for (int r : topo_.shared[s].sharers) {
      append_record(&results, owned_ids_[o], u, nf);
      results_dest.push_back(r);
    }
  }
  std::vector<std::byte> incoming =
      router_.route(results, results_dest, record_bytes);
  for (std::size_t pos = 0; pos < incoming.size(); pos += record_bytes) {
    const std::byte* rec = incoming.data() + pos;
    // Find the shared entry by id (topo_.shared is sorted by id).
    auto it = std::lower_bound(
        topo_.shared.begin(), topo_.shared.end(), record_id(rec),
        [](const SharedId& a, long long id) { return a.id < id; });
    util::copy_bytes(unique + it->unique_index * nf, record_values(rec),
                     nf * sizeof(double));
  }
}

// --- allreduce on a big vector ------------------------------------------------

void GatherScatter::exec_allreduce() {
  const std::size_t nf = op_.nfields;
  double* unique = op_.unique.data();
  // The big vector spans the whole global id space (as in gslib), with the
  // shared entries packed first; private entries ride along as identity and
  // are never read back. This is what makes the method scale so poorly.
  std::vector<double> big(std::size_t(topo_.total_global) * nf,
                          identity(op_.op));
  for (const SharedId& sh : topo_.shared) {
    util::copy_bytes(big.data() + std::size_t(sh.shared_index) * nf,
                     unique + sh.unique_index * nf, nf * sizeof(double));
  }
  comm_->allreduce(std::span<double>(big), op_.op);
  for (const SharedId& sh : topo_.shared) {
    util::copy_bytes(unique + sh.unique_index * nf,
                     big.data() + std::size_t(sh.shared_index) * nf,
                     nf * sizeof(double));
  }
}

// --- startup tuning (the Fig. 7 measurement) -----------------------------------

Method GatherScatter::tune(int repetitions) {
  // Ordered handles run one fixed exchange; there is nothing to tune.
  if (ordered_) return method_;
  tuning_.clear();
  const Method methods[] = {Method::kPairwise, Method::kCrystalRouter,
                            Method::kAllReduce};
  std::vector<double> dummy(topo_.unique_of_slot.size(), 1.0);

  // The allreduce big vector spans the whole global id space; past this
  // size the method cannot win and timing it would only burn memory and
  // wall clock (the paper's "too expensive"). Record it as infinite.
  constexpr long long kAllreduceTuneLimit = 1LL << 23;  // values (64 MiB)

  double best_avg = std::numeric_limits<double>::infinity();
  Method best = Method::kPairwise;
  for (Method m : methods) {
    if (m == Method::kAllReduce && topo_.total_global > kAllreduceTuneLimit) {
      TuneRow row;
      row.method = m;
      row.avg = row.min = row.max = std::numeric_limits<double>::infinity();
      tuning_.push_back(row);
      continue;
    }
    // Warm-up once (first-touch allocation), then time.
    method_ = m;
    exec(std::span<double>(dummy), ReduceOp::kSum);
    comm_->barrier();
    prof::WallTimer t;
    for (int rep = 0; rep < repetitions; ++rep) {
      exec(std::span<double>(dummy), ReduceOp::kSum);
    }
    double mine = t.seconds() / repetitions;

    TuneRow row;
    row.method = m;
    row.avg = comm_->allreduce_one(mine, ReduceOp::kSum) / comm_->size();
    row.min = comm_->allreduce_one(mine, ReduceOp::kMin);
    row.max = comm_->allreduce_one(mine, ReduceOp::kMax);
    tuning_.push_back(row);
    if (row.avg < best_avg) {
      best_avg = row.avg;
      best = m;
    }
  }
  method_ = best;
  return best;
}

// --- the analytic model's view of the exchange --------------------------------

netmodel::ExchangeShape GatherScatter::exchange_shape() const {
  netmodel::ExchangeShape shape;
  shape.ranks = comm_->size();
  shape.neighbors = int(pairwise_plan_.size());
  shape.pairwise_bytes =
      static_cast<long long>(pairwise_send_values() * sizeof(double));
  // Crystal pass 1 injects one record per shared entry this rank does not
  // own; the return pass is symmetric in aggregate, and predict_crystal
  // already doubles for the two passes.
  long long not_owned = 0;
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    if (owner_[s] != comm_->rank()) ++not_owned;
  }
  shape.crystal_records = not_owned;
  shape.record_bytes = sizeof(long long) + sizeof(double);
  shape.big_vector_bytes =
      topo_.total_global * static_cast<long long>(sizeof(double));
  return shape;
}

// --- structure queries ----------------------------------------------------------

std::vector<int> GatherScatter::pairwise_neighbors() const {
  std::vector<int> out;
  out.reserve(pairwise_plan_.size());
  for (const auto& [rank, entries] : pairwise_plan_) {
    (void)entries;
    out.push_back(rank);
  }
  return out;
}

std::size_t GatherScatter::pairwise_send_values() const {
  std::size_t v = 0;
  for (const auto& [rank, entries] : pairwise_plan_) {
    (void)rank;
    v += entries.size();
  }
  return v;
}

}  // namespace cmtbone::gs

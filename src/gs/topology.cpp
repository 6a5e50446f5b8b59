#include "gs/topology.hpp"

#include <algorithm>

namespace cmtbone::gs {

namespace {

// A global id with a small payload: a local slot, or the rank that reported
// the id to its home.
struct IdEntry {
  long long id;
  int value;
};

// Stable LSD radix sort of `v` by id over 8-bit digits; `tmp` is scratch.
// Flipping the sign bit maps ids to unsigned keys in signed order, and a
// digit on which every key agrees is skipped, so ids below 2^16 take two
// passes.
void sort_by_id(std::vector<IdEntry>& v, std::vector<IdEntry>& tmp) {
  if (v.size() < 2) return;
  auto key = [](long long id) {
    return static_cast<unsigned long long>(id) ^ (1ull << 63);
  };
  unsigned long long differ = 0;
  for (const IdEntry& e : v) differ |= key(e.id) ^ key(v[0].id);
  tmp.resize(v.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) == 0) continue;
    std::size_t start[257] = {};
    for (const IdEntry& e : v) ++start[((key(e.id) >> shift) & 0xff) + 1];
    for (int d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const IdEntry& e : v) tmp[start[(key(e.id) >> shift) & 0xff]++] = e;
    v.swap(tmp);
  }
}

// Calls f(b, e) for each run [b, e) of equal ids in `v`, which is sorted by
// id.
template <class F>
void for_each_run(const std::vector<IdEntry>& v, F&& f) {
  std::size_t b = 0;
  while (b < v.size()) {
    std::size_t e = b + 1;
    while (e < v.size() && v[e].id == v[b].id) ++e;
    f(b, e);
    b = e;
  }
}

// The rank that collates id: the non-negative remainder of id mod p.
int home_rank(long long id, int p) {
  const long long r = id % p;
  return int(r < 0 ? r + p : r);
}

// Exclusive prefix sum of `counts`: where each destination's block starts.
std::vector<std::size_t> block_starts(const std::vector<int>& counts) {
  std::vector<std::size_t> start(counts.size() + 1, 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    start[r + 1] = start[r] + std::size_t(counts[r]);
  }
  return start;
}

}  // namespace

Topology gs_setup(comm::Comm& comm, std::span<const long long> slot_ids) {
  const int p = comm.size();
  const int me = comm.rank();

  Topology topo;
  std::vector<IdEntry> entries(slot_ids.size()), scratch;

  // --- local dedup: slots -> unique ids ---------------------------------
  // Sorted (id, slot) pairs: each run of equal ids is one unique id.
  for (std::size_t s = 0; s < slot_ids.size(); ++s) {
    entries[s] = {slot_ids[s], int(s)};
  }
  sort_by_id(entries, scratch);
  topo.unique_of_slot.resize(slot_ids.size());
  for_each_run(entries, [&](std::size_t b, std::size_t e) {
    const int u = int(topo.unique_ids.size());
    topo.unique_ids.push_back(entries[b].id);
    for (std::size_t i = b; i < e; ++i) {
      topo.unique_of_slot[std::size_t(entries[i].value)] = u;
    }
  });

  // --- ship ids to their home ranks (generalized all-to-all) ------------
  // A stable counting sort by home keeps each home's ids ascending.
  std::vector<int> home(topo.unique_ids.size());
  std::vector<int> send_counts(p, 0);
  for (std::size_t u = 0; u < home.size(); ++u) {
    home[u] = home_rank(topo.unique_ids[u], p);
    ++send_counts[home[u]];
  }
  std::vector<long long> send(topo.unique_ids.size());
  {
    std::vector<std::size_t> next = block_starts(send_counts);
    for (std::size_t u = 0; u < home.size(); ++u) {
      send[next[home[u]]++] = topo.unique_ids[u];
    }
  }
  std::vector<int> recv_counts;
  std::vector<long long> incoming = comm.alltoallv(
      std::span<const long long>(send), send_counts, &recv_counts);

  // --- home-side collation ----------------------------------------------
  // (id, source) pairs arrive grouped by ascending source; a stable sort by
  // id makes each id's sharer list a run, sources still ascending.
  entries.resize(incoming.size());
  {
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      for (int c = 0; c < recv_counts[src]; ++c, ++pos) {
        entries[pos] = {incoming[pos], src};
      }
    }
  }
  sort_by_id(entries, scratch);
  long long my_id_count = 0, my_shared_count = 0;
  for_each_run(entries, [&](std::size_t b, std::size_t e) {
    ++my_id_count;
    if (e - b > 1) ++my_shared_count;
  });

  // Dense global indices for shared ids: exclusive scan of per-home counts
  // (deterministic: homes index their shared ids in ascending id order).
  long long scan_incl = comm.scan_sum(my_shared_count);
  long long my_base = scan_incl - my_shared_count;
  topo.total_shared = comm.allreduce_one(my_shared_count, comm::ReduceOp::kSum);
  topo.total_global = comm.allreduce_one(my_id_count, comm::ReduceOp::kSum);

  // --- reply to sharers ---------------------------------------------------
  // Flattened record per (shared id, sharer): [id, shared_index, nsharers,
  // r0..r_{n-1}] sent to every sharer, in ascending id order.
  std::vector<int> reply_counts(p, 0);
  for_each_run(entries, [&](std::size_t b, std::size_t e) {
    if (e - b < 2) return;
    for (std::size_t i = b; i < e; ++i) {
      reply_counts[entries[i].value] += int(3 + e - b);
    }
  });
  std::vector<long long> reply;
  {
    std::vector<std::size_t> next = block_starts(reply_counts);
    reply.resize(next.back());
    long long shared_index = my_base;
    for_each_run(entries, [&](std::size_t b, std::size_t e) {
      if (e - b < 2) return;
      for (std::size_t i = b; i < e; ++i) {
        std::size_t& at = next[entries[i].value];
        reply[at++] = entries[b].id;
        reply[at++] = shared_index;
        reply[at++] = static_cast<long long>(e - b);
        for (std::size_t j = b; j < e; ++j) reply[at++] = entries[j].value;
      }
      ++shared_index;
    });
  }
  std::vector<long long> answers = comm.alltoallv(
      std::span<const long long>(reply), reply_counts, nullptr);

  // --- parse answers into SharedId entries --------------------------------
  std::size_t pos = 0;
  while (pos < answers.size()) {
    SharedId entry;
    entry.id = answers[pos++];
    entry.shared_index = answers[pos++];
    long long nsharers = answers[pos++];
    entry.sharers.reserve(std::size_t(nsharers) - 1);
    for (long long i = 0; i < nsharers; ++i) {
      int r = int(answers[pos++]);
      if (r != me) entry.sharers.push_back(r);
    }
    std::sort(entry.sharers.begin(), entry.sharers.end());
    entry.unique_index = int(
        std::lower_bound(topo.unique_ids.begin(), topo.unique_ids.end(),
                         entry.id) -
        topo.unique_ids.begin());
    topo.shared.push_back(std::move(entry));
  }
  std::sort(topo.shared.begin(), topo.shared.end(),
            [](const SharedId& a, const SharedId& b) { return a.id < b.id; });

  return topo;
}

}  // namespace cmtbone::gs

#include "gs/topology.hpp"

#include <algorithm>
#include <map>

namespace cmtbone::gs {

std::size_t Topology::exchange_volume() const {
  std::size_t v = 0;
  for (const SharedId& s : shared) v += s.sharers.size();
  return v;
}

Topology gs_setup(comm::Comm& comm, std::span<const long long> slot_ids) {
  const int p = comm.size();
  const int me = comm.rank();

  Topology topo;

  // --- local dedup: slots -> unique ids ---------------------------------
  topo.unique_ids.assign(slot_ids.begin(), slot_ids.end());
  std::sort(topo.unique_ids.begin(), topo.unique_ids.end());
  topo.unique_ids.erase(
      std::unique(topo.unique_ids.begin(), topo.unique_ids.end()),
      topo.unique_ids.end());
  topo.unique_of_slot.resize(slot_ids.size());
  for (std::size_t s = 0; s < slot_ids.size(); ++s) {
    topo.unique_of_slot[s] = int(
        std::lower_bound(topo.unique_ids.begin(), topo.unique_ids.end(),
                         slot_ids[s]) -
        topo.unique_ids.begin());
  }

  // --- ship ids to their home ranks (generalized all-to-all) ------------
  // Ids are already sorted, and id % p groups them arbitrarily, so bucket
  // explicitly.
  std::vector<std::vector<long long>> bucket(p);
  for (long long id : topo.unique_ids) {
    bucket[int(id % p)].push_back(id);
  }
  std::vector<long long> send;
  std::vector<int> send_counts(p);
  send.reserve(topo.unique_ids.size());
  for (int r = 0; r < p; ++r) {
    send_counts[r] = int(bucket[r].size());
    send.insert(send.end(), bucket[r].begin(), bucket[r].end());
  }
  std::vector<int> recv_counts;
  std::vector<long long> incoming = comm.alltoallv(
      std::span<const long long>(send), send_counts, &recv_counts);

  // --- home-side collation ----------------------------------------------
  // For each id this rank is home for: the set of ranks that reported it.
  std::map<long long, std::vector<int>> holders;
  {
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      for (int c = 0; c < recv_counts[src]; ++c) {
        holders[incoming[pos++]].push_back(src);
      }
    }
  }

  // Dense global indices for shared ids: exclusive scan of per-home counts
  // (deterministic: homes index their shared ids in ascending id order).
  long long my_shared_count = 0;
  for (const auto& [id, ranks] : holders) {
    (void)id;
    if (ranks.size() > 1) ++my_shared_count;
  }
  long long scan_incl = comm.scan_sum(my_shared_count);
  long long my_base = scan_incl - my_shared_count;
  topo.total_shared = comm.allreduce_one(my_shared_count, comm::ReduceOp::kSum);
  topo.total_global = comm.allreduce_one(
      static_cast<long long>(holders.size()), comm::ReduceOp::kSum);

  // --- reply to sharers ---------------------------------------------------
  // Flattened record per (shared id, sharer): [id, shared_index, nsharers,
  // r0..r_{n-1}] sent to every sharer.
  std::vector<std::vector<long long>> reply(p);
  {
    long long next_index = my_base;
    for (const auto& [id, ranks] : holders) {
      if (ranks.size() < 2) continue;
      long long shared_index = next_index++;
      for (int dest : ranks) {
        auto& out = reply[dest];
        out.push_back(id);
        out.push_back(shared_index);
        out.push_back(static_cast<long long>(ranks.size()));
        for (int r : ranks) out.push_back(r);
      }
    }
  }
  std::vector<long long> reply_flat;
  std::vector<int> reply_counts(p);
  for (int r = 0; r < p; ++r) {
    reply_counts[r] = int(reply[r].size());
    reply_flat.insert(reply_flat.end(), reply[r].begin(), reply[r].end());
  }
  std::vector<long long> answers = comm.alltoallv(
      std::span<const long long>(reply_flat), reply_counts, nullptr);

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

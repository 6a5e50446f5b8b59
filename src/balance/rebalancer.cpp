#include "balance/rebalancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mesh/faces.hpp"

namespace cmtbone::balance {

std::vector<double> gather_global_costs(comm::Comm& comm,
                                        const mesh::ElementLayout& layout,
                                        std::span<const double> local_cost) {
  // Ship (gid, cost) pairs rather than relying on rank-order concatenation,
  // so assembly is correct for any ownership pattern.
  std::vector<long long> gids(layout.owned_gids());
  std::vector<long long> all_gids = comm.allgatherv(
      std::span<const long long>(gids));
  std::vector<double> all_costs = comm.allgatherv(local_cost);

  std::vector<double> dense(std::size_t(layout.total_elements()), 0.0);
  for (std::size_t i = 0; i < all_gids.size(); ++i) {
    dense[std::size_t(all_gids[i])] = all_costs[i];
  }
  return dense;
}

namespace {

double load_imbalance(const std::vector<double>& loads) {
  double mx = 0, sum = 0;
  for (double l : loads) {
    mx = std::max(mx, l);
    sum += l;
  }
  const double mean = sum / double(loads.size());
  return mean > 0 ? mx / mean : 1.0;
}

}  // namespace

RebalancePlan propose_owner(const mesh::ElementLayout& layout,
                            std::span<const double> cost,
                            const RebalanceConfig& config) {
  const int nranks = layout.nranks();
  const long long total = layout.total_elements();

  RebalancePlan plan;
  plan.owner = layout.owner();

  std::vector<double> loads(std::size_t(nranks), 0.0);
  std::vector<int> counts(std::size_t(nranks), 0);
  for (long long g = 0; g < total; ++g) {
    loads[std::size_t(plan.owner[std::size_t(g)])] += cost[std::size_t(g)];
    ++counts[std::size_t(plan.owner[std::size_t(g)])];
  }
  plan.imbalance_before = load_imbalance(loads);
  plan.imbalance_after = plan.imbalance_before;
  if (nranks < 2) return plan;

  // True when gid g has a face neighbor owned by rank r (periodic wrap
  // included): the adjacency preference that keeps partitions compact.
  auto adjacent_to = [&](long long g, int r) {
    for (int f = 0; f < mesh::kFacesPerElement; ++f) {
      const long long ng = layout.face_neighbor(g, f);
      if (ng >= 0 && plan.owner[std::size_t(ng)] == r) return true;
    }
    return false;
  };

  for (int move = 0; move < config.max_moves; ++move) {
    // Donor: most loaded rank (lowest rank on ties); acceptor: least
    // loaded. Ties resolve identically everywhere — inputs are replicated.
    int donor = 0, acceptor = 0;
    for (int r = 1; r < nranks; ++r) {
      if (loads[std::size_t(r)] > loads[std::size_t(donor)]) donor = r;
      if (loads[std::size_t(r)] < loads[std::size_t(acceptor)]) acceptor = r;
    }
    double sum = 0;
    for (double l : loads) sum += l;
    const double mean = sum / double(nranks);
    if (mean <= 0 || loads[std::size_t(donor)] <= config.threshold * mean) {
      break;
    }
    if (counts[std::size_t(donor)] <= 1) break;  // never empty a rank

    // Candidate: a donor element whose cost most nearly halves the gap
    // (strictly reducing it), preferring acceptor-adjacent elements, tie
    // broken toward the lowest gid.
    const double gap =
        loads[std::size_t(donor)] - loads[std::size_t(acceptor)];
    const double half = gap / 2.0;
    long long best = -1;
    double best_score = std::numeric_limits<double>::infinity();
    bool best_adjacent = false;
    for (long long g = 0; g < total; ++g) {
      if (plan.owner[std::size_t(g)] != donor) continue;
      const double c = cost[std::size_t(g)];
      if (c <= 0 || c >= gap) continue;
      const bool adj = adjacent_to(g, acceptor);
      if (adj != best_adjacent) {
        if (!adj) continue;  // a non-adjacent candidate never beats adjacent
        best = g;            // first adjacent candidate found
        best_score = std::abs(c - half);
        best_adjacent = true;
        continue;
      }
      const double score = std::abs(c - half);
      if (score < best_score) {
        best = g;
        best_score = score;
      }
    }
    if (best < 0) break;

    plan.owner[std::size_t(best)] = acceptor;
    loads[std::size_t(donor)] -= cost[std::size_t(best)];
    loads[std::size_t(acceptor)] += cost[std::size_t(best)];
    --counts[std::size_t(donor)];
    ++counts[std::size_t(acceptor)];
    ++plan.moves;
  }

  plan.imbalance_after = load_imbalance(loads);
  return plan;
}

Imbalance measure_imbalance(comm::Comm& comm, double busy_seconds) {
  Imbalance im;
  im.max_busy = comm.allreduce_one(busy_seconds, comm::ReduceOp::kMax);
  im.mean_busy =
      comm.allreduce_one(busy_seconds, comm::ReduceOp::kSum) / comm.size();
  return im;
}

}  // namespace cmtbone::balance

// Gather-scatter library: discovery, the three exchange algorithms, ordered
// (key-canonical) folds, and agreement with serial oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/crystal.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "prof/callprof.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::gs::GatherScatter;
using cmtbone::gs::Method;
using cmtbone::gs::ReduceOp;

// Deterministic per-slot values derived from (seed, rank, slot).
double slot_value(std::uint64_t seed, int rank, std::size_t slot) {
  cmtbone::util::SplitMix64 rng(seed ^ (rank * 7919 + slot * 104729));
  return rng.uniform(-10.0, 10.0);
}

// Serial oracle: reduce values over all (rank, slot) pairs sharing an id.
std::map<long long, double> oracle_reduce(
    const std::vector<std::vector<long long>>& ids_per_rank,
    std::uint64_t seed, ReduceOp op) {
  std::map<long long, double> out;
  for (int r = 0; r < int(ids_per_rank.size()); ++r) {
    for (std::size_t s = 0; s < ids_per_rank[r].size(); ++s) {
      double v = slot_value(seed, r, s);
      auto [it, fresh] = out.try_emplace(ids_per_rank[r][s], v);
      if (!fresh) it->second = cmtbone::comm::apply(op, it->second, v);
    }
  }
  return out;
}

// Build per-rank slot ids from the block layout (the realistic workload).
std::vector<std::vector<long long>> mesh_ids(const cmtbone::mesh::BoxSpec& spec) {
  std::vector<std::vector<long long>> ids(spec.nranks());
  for (int r = 0; r < spec.nranks(); ++r) {
    ids[r] = cmtbone::mesh::global_gll_ids(
        cmtbone::mesh::ElementLayout::block(spec, r));
  }
  return ids;
}

cmtbone::mesh::BoxSpec small_spec(int px, int py, int pz) {
  cmtbone::mesh::BoxSpec s;
  s.n = 3;
  s.ex = 2 * px;
  s.ey = 2 * py;
  s.ez = 2 * pz;
  s.px = px;
  s.py = py;
  s.pz = pz;
  s.periodic = true;
  return s;
}

void check_method_against_oracle(const cmtbone::mesh::BoxSpec& spec,
                                 Method method, ReduceOp op,
                                 std::uint64_t seed) {
  auto ids = mesh_ids(spec);
  auto expected = oracle_reduce(ids, seed, op);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, method);
    std::vector<double> values(my_ids.size());
    for (std::size_t s = 0; s < values.size(); ++s) {
      values[s] = slot_value(seed, world.rank(), s);
    }
    gs.exec(std::span<double>(values), op);
    for (std::size_t s = 0; s < values.size(); ++s) {
      // Products of up to 8 contributions reach ~1e8; combine order differs
      // between methods and oracle, so tolerance is relative.
      double want = expected.at(my_ids[s]);
      ASSERT_NEAR(values[s], want, 1e-10 * std::max(1.0, std::abs(want)))
          << "rank=" << world.rank() << " slot=" << s;
    }
  });
}

struct GsCase {
  int px, py, pz;
  Method method;
  ReduceOp op;
};

class GsOracle : public ::testing::TestWithParam<GsCase> {};

TEST_P(GsOracle, MatchesSerialReduction) {
  const GsCase& c = GetParam();
  check_method_against_oracle(small_spec(c.px, c.py, c.pz), c.method, c.op,
                              1234);
}

std::vector<GsCase> gs_cases() {
  std::vector<GsCase> cases;
  const Method methods[] = {Method::kPairwise, Method::kCrystalRouter,
                            Method::kAllReduce};
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax,
                          ReduceOp::kProd};
  for (Method m : methods) {
    for (ReduceOp op : ops) {
      cases.push_back({2, 1, 1, m, op});
      cases.push_back({2, 2, 1, m, op});
    }
    // 3-D decompositions and non-power-of-two rank counts, sum only.
    cases.push_back({2, 2, 2, m, ReduceOp::kSum});
    cases.push_back({3, 1, 1, m, ReduceOp::kSum});
    cases.push_back({3, 2, 1, m, ReduceOp::kSum});
    cases.push_back({5, 1, 1, m, ReduceOp::kSum});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsOracle, ::testing::ValuesIn(gs_cases()),
    [](const ::testing::TestParamInfo<GsCase>& info) {
      const GsCase& c = info.param;
      std::string m = c.method == Method::kPairwise       ? "pairwise"
                      : c.method == Method::kCrystalRouter ? "crystal"
                                                            : "allreduce";
      return m + "_P" + std::to_string(c.px) + std::to_string(c.py) +
             std::to_string(c.pz) + "_op" +
             std::to_string(static_cast<int>(c.op));
    });

TEST(GsSetup, TopologyIdentifiesSharersExactly) {
  // 2 ranks, hand-built id sets: ids 5 and 7 shared, others private.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = world.rank() == 0
                                     ? std::vector<long long>{1, 5, 7, 9}
                                     : std::vector<long long>{2, 5, 7, 11};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    ASSERT_EQ(topo.shared.size(), 2u);
    EXPECT_EQ(topo.shared[0].id, 5);
    EXPECT_EQ(topo.shared[1].id, 7);
    int other = 1 - world.rank();
    for (const auto& sh : topo.shared) {
      ASSERT_EQ(sh.sharers.size(), 1u);
      EXPECT_EQ(sh.sharers[0], other);
    }
    EXPECT_EQ(topo.total_shared, 2);
  });
}

TEST(GsSetup, DuplicateLocalSlotsCollapse) {
  cmtbone::comm::run(2, [](Comm& world) {
    // Same id appears three times locally on rank 0.
    std::vector<long long> ids = world.rank() == 0
                                     ? std::vector<long long>{4, 4, 4, 8}
                                     : std::vector<long long>{4, 6};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    if (world.rank() == 0) {
      EXPECT_EQ(topo.unique_ids.size(), 2u);
      EXPECT_EQ(topo.unique_of_slot[0], topo.unique_of_slot[1]);
      EXPECT_EQ(topo.unique_of_slot[1], topo.unique_of_slot[2]);
    }
    ASSERT_EQ(topo.shared.size(), 1u);
    EXPECT_EQ(topo.shared[0].id, 4);
  });
}

TEST(GsSetup, NoSharingMeansEmptyTopology) {
  cmtbone::comm::run(3, [](Comm& world) {
    std::vector<long long> ids = {world.rank() * 10 + 1, world.rank() * 10 + 2};
    auto topo = cmtbone::gs::gs_setup(world, ids);
    EXPECT_TRUE(topo.shared.empty());
    EXPECT_EQ(topo.total_shared, 0);
  });
}

TEST(GsSetup, NegativeIdsReduceOnEveryMethod) {
  // Negative ids home on the non-negative remainder of id mod P.
  const std::vector<std::vector<long long>> ids = {
      {-3, -3, 5, -8}, {-3, 7, -8}, {-7, -3, 4}};
  const std::vector<std::vector<double>> copies = {
      {4, 4, 1, 2}, {4, 1, 2}, {1, 4, 1}};
  for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                   Method::kAllReduce}) {
    cmtbone::comm::run(3, [&](Comm& world) {
      const auto& my_ids = ids[world.rank()];
      GatherScatter gs(world, my_ids, m);
      std::vector<double> ones(my_ids.size(), 1.0);
      gs.exec(std::span<double>(ones), ReduceOp::kSum);
      EXPECT_EQ(ones, copies[world.rank()])
          << "method=" << cmtbone::gs::method_name(m)
          << " rank=" << world.rank();
    });
  }
}

// --- discovery against the map-based reference ------------------------------
//
// The map-based gs_setup that sort-and-scan replaced, kept here as the
// reference: it collates ids on their home rank in a map of sharer
// vectors. The production code must return the identical Topology and send
// the identical messages.

cmtbone::gs::Topology reference_gs_setup(Comm& comm,
                                         std::span<const long long> slot_ids) {
  const int p = comm.size();
  const int me = comm.rank();
  cmtbone::gs::Topology topo;

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

  std::vector<std::vector<long long>> bucket(p);
  for (long long id : topo.unique_ids) {
    bucket[int((id % p + p) % p)].push_back(id);
  }
  std::vector<long long> send;
  std::vector<int> send_counts(p);
  for (int r = 0; r < p; ++r) {
    send_counts[r] = int(bucket[r].size());
    send.insert(send.end(), bucket[r].begin(), bucket[r].end());
  }
  std::vector<int> recv_counts;
  std::vector<long long> incoming = comm.alltoallv(
      std::span<const long long>(send), send_counts, &recv_counts);

  std::map<long long, std::vector<int>> holders;
  std::size_t in = 0;
  for (int src = 0; src < p; ++src) {
    for (int c = 0; c < recv_counts[src]; ++c) {
      holders[incoming[in++]].push_back(src);
    }
  }
  long long my_shared_count = 0;
  for (const auto& [id, ranks] : holders) {
    if (ranks.size() > 1) ++my_shared_count;
  }
  long long my_base = comm.scan_sum(my_shared_count) - my_shared_count;
  topo.total_shared =
      comm.allreduce_one(my_shared_count, cmtbone::comm::ReduceOp::kSum);
  topo.total_global = comm.allreduce_one(
      static_cast<long long>(holders.size()), cmtbone::comm::ReduceOp::kSum);

  std::vector<std::vector<long long>> reply(p);
  for (const auto& [id, ranks] : holders) {
    if (ranks.size() < 2) continue;
    long long shared_index = my_base++;
    for (int dest : ranks) {
      auto& out = reply[dest];
      out.push_back(id);
      out.push_back(shared_index);
      out.push_back(static_cast<long long>(ranks.size()));
      for (int r : ranks) out.push_back(r);
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

  std::size_t pos = 0;
  while (pos < answers.size()) {
    cmtbone::gs::SharedId entry;
    entry.id = answers[pos++];
    entry.shared_index = answers[pos++];
    long long nsharers = answers[pos++];
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
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return topo;
}

// Runs gs_setup and the reference on ids.size() ranks and compares every
// field of the two topologies on every rank.
void expect_reference_topology(const std::vector<std::vector<long long>>& ids,
                               const std::string& label) {
  cmtbone::comm::run(int(ids.size()), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    const auto want = reference_gs_setup(world, my_ids);
    const auto got = cmtbone::gs::gs_setup(world, my_ids);
    const std::string where =
        label + " ranks=" + std::to_string(ids.size()) +
        " rank=" + std::to_string(world.rank());
    EXPECT_EQ(got.unique_ids, want.unique_ids) << where;
    EXPECT_EQ(got.unique_of_slot, want.unique_of_slot) << where;
    EXPECT_EQ(got.total_shared, want.total_shared) << where;
    EXPECT_EQ(got.total_global, want.total_global) << where;
    ASSERT_EQ(got.shared.size(), want.shared.size()) << where;
    for (std::size_t i = 0; i < want.shared.size(); ++i) {
      EXPECT_EQ(got.shared[i].id, want.shared[i].id) << where << " i=" << i;
      EXPECT_EQ(got.shared[i].unique_index, want.shared[i].unique_index)
          << where << " i=" << i;
      EXPECT_EQ(got.shared[i].shared_index, want.shared[i].shared_index)
          << where << " i=" << i;
      EXPECT_EQ(got.shared[i].sharers, want.shared[i].sharers)
          << where << " i=" << i;
    }
  });
}

// Processor grids for 1..8 ranks.
const std::array<int, 3> kProcGrids[] = {{1, 1, 1}, {2, 1, 1}, {3, 1, 1},
                                         {2, 2, 1}, {5, 1, 1}, {3, 2, 1},
                                         {7, 1, 1}, {2, 2, 2}};

// Up to 59 ids per rank drawn from [lo, lo + span): repeats within a rank
// and across ranks both occur when span is small.
std::vector<std::vector<long long>> fuzzed_ids(int ranks, std::uint64_t seed,
                                               long long lo, long long span) {
  cmtbone::util::SplitMix64 rng(seed);
  std::vector<std::vector<long long>> ids(ranks);
  for (auto& rank_ids : ids) {
    rank_ids.resize(rng.below(60));
    for (long long& id : rank_ids) {
      id = lo + static_cast<long long>(rng.below(std::uint64_t(span)));
    }
  }
  return ids;
}

TEST(GsReference, BlockMeshGllIdsPeriodicAndNot) {
  for (const auto& g : kProcGrids) {
    for (bool periodic : {true, false}) {
      auto spec = small_spec(g[0], g[1], g[2]);
      spec.periodic = periodic;
      expect_reference_topology(mesh_ids(spec), periodic ? "periodic"
                                                         : "non-periodic");
    }
  }
}

TEST(GsReference, FuzzedIdsWithLocalDuplicates) {
  for (int p = 1; p <= 8; ++p) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      expect_reference_topology(fuzzed_ids(p, seed * 31 + p, 0, 40),
                                "fuzzed seed=" + std::to_string(seed));
    }
  }
}

TEST(GsReference, IdsAbove2To40) {
  for (int p = 1; p <= 8; ++p) {
    // Narrow span: many shared ids, and the high bytes all keys share.
    expect_reference_topology(
        fuzzed_ids(p, 100 + p, (1ll << 40) + 0x123456789ll, 50), "2^40");
    // Wide span up to 2^50: nearly all ids private, seven digits to sort.
    expect_reference_topology(fuzzed_ids(p, 200 + p, 1ll << 40, 1ll << 50),
                              "2^50");
  }
}

TEST(GsReference, RanksWithNoIds) {
  for (int p = 1; p <= 8; ++p) {
    auto ids = fuzzed_ids(p, 300 + p, 0, 30);
    for (int r = 0; r < p; r += 2) ids[r].clear();
    expect_reference_topology(ids, "even ranks empty");
    expect_reference_topology(std::vector<std::vector<long long>>(p),
                              "all empty");
  }
}

TEST(GsReference, EveryIdSharedByEveryRank) {
  for (int p = 1; p <= 8; ++p) {
    std::vector<std::vector<long long>> ids(p);
    for (int r = 0; r < p; ++r) {
      // Same ids everywhere, in a rank-dependent order, with a duplicate.
      for (long long id = 0; id < 20; ++id) ids[r].push_back((id + 7 * r) % 20);
      ids[r].push_back(7);
    }
    expect_reference_topology(ids, "all shared");
  }
}

TEST(GsReference, NegativeIds) {
  for (int p = 1; p <= 8; ++p) {
    expect_reference_topology(fuzzed_ids(p, 400 + p, -25, 50), "around 0");
    expect_reference_topology(
        fuzzed_ids(p, 500 + p, -(1ll << 45), 1ll << 46), "wide");
    expect_reference_topology(
        std::vector<std::vector<long long>>(
            p, {std::numeric_limits<long long>::min(), -1, 0,
                std::numeric_limits<long long>::max()}),
        "extremes");
  }
}

TEST(GsSetup, SetupMessagesMatchFigs9And10) {
  // The set-up rows of the Fig. 9-10 tables at 4 ranks, N=6, 4^3 elements:
  // two alltoallvs, two allreduces and one scan per rank.
  cmtbone::core::Config cfg;
  cfg.n = 6;
  cfg.ex = cfg.ey = cfg.ez = 4;
  std::vector<cmtbone::prof::CallProfile> profiles;
  cmtbone::comm::RunOptions opts;
  opts.call_profiles = &profiles;
  cmtbone::comm::run(4, [&](Comm& world) {
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(2);
  }, opts);
  std::map<std::string, std::pair<long, long long>> sites;
  for (const auto& s : cmtbone::prof::site_totals(profiles)) {
    sites[s.site] = {s.calls, s.total_bytes};
  }
  using Row = std::pair<long, long long>;
  EXPECT_EQ(sites["gs_setup/MPI_Alltoallv"], Row(8, 157920));
  EXPECT_EQ(sites["gs_setup/MPI_Allreduce"], Row(8, 64));
  EXPECT_EQ(sites["gs_setup/MPI_Scan"], Row(4, 32));
}

TEST(GsOp, LocalGatherHandlesDuplicatesWithinRank) {
  // An id duplicated locally AND shared remotely: gs must fold local copies
  // first, then exchange, then write the result to every copy.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {100, 100, 7 + world.rank()};
    GatherScatter gs(world, ids, Method::kPairwise);
    std::vector<double> v = {1.0 + world.rank(), 10.0, 5.0};
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    // id 100: rank0 contributes 1+10, rank1 contributes 2+10 -> 23.
    EXPECT_DOUBLE_EQ(v[0], 23.0);
    EXPECT_DOUBLE_EQ(v[1], 23.0);
    EXPECT_DOUBLE_EQ(v[2], 5.0);  // private id untouched
  });
}

TEST(GsOp, MultiplicityOfOnesCountsCopies) {
  // The dssum multiplicity trick: gs(add) over ones yields the number of
  // copies of each global point.
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  std::map<long long, int> copies;
  for (const auto& rank_ids : ids) {
    for (long long id : rank_ids) copies[id]++;
  }
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kCrystalRouter);
    std::vector<double> ones(my_ids.size(), 1.0);
    gs.exec(std::span<double>(ones), ReduceOp::kSum);
    for (std::size_t s = 0; s < ones.size(); ++s) {
      ASSERT_DOUBLE_EQ(ones[s], copies.at(my_ids[s]));
    }
  });
}

TEST(GsOp, RepeatedExecsAreIdempotentForMax) {
  auto spec = small_spec(2, 1, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> v(my_ids.size());
    for (std::size_t s = 0; s < v.size(); ++s) {
      v[s] = slot_value(9, world.rank(), s);
    }
    gs.exec(std::span<double>(v), ReduceOp::kMax);
    std::vector<double> once = v;
    gs.exec(std::span<double>(v), ReduceOp::kMax);
    for (std::size_t s = 0; s < v.size(); ++s) {
      ASSERT_DOUBLE_EQ(v[s], once[s]);
    }
  });
}

TEST(GsOp, AllMethodsAgreeWithEachOther) {
  auto spec = small_spec(3, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter pairwise(world, my_ids, Method::kPairwise);
    GatherScatter crystal(world, my_ids, Method::kCrystalRouter);
    GatherScatter allreduce(world, my_ids, Method::kAllReduce);
    std::vector<double> base(my_ids.size());
    for (std::size_t s = 0; s < base.size(); ++s) {
      base[s] = slot_value(77, world.rank(), s);
    }
    std::vector<double> a = base, b = base, c = base;
    pairwise.exec(std::span<double>(a), ReduceOp::kSum);
    crystal.exec(std::span<double>(b), ReduceOp::kSum);
    allreduce.exec(std::span<double>(c), ReduceOp::kSum);
    for (std::size_t s = 0; s < base.size(); ++s) {
      ASSERT_NEAR(a[s], b[s], 1e-11);
      ASSERT_NEAR(a[s], c[s], 1e-11);
    }
  });
}

TEST(GsOp, RejectsMisSizedValues) {
  // A wrong nfields or span length throws before anything is posted, so
  // the handle stays usable: the next well-formed gs_op is exact.
  for (int ranks : {1, 2}) {
    for (bool ordered : {false, true}) {
      cmtbone::comm::run(ranks, [&](Comm& world) {
        const long long r = world.rank();
        const std::string where = std::to_string(ranks) + " ranks, ordered " +
                                  std::to_string(ordered) + ", rank " +
                                  std::to_string(r);
        // id 1 once per rank, id 2 twice per rank, one private id.
        std::vector<long long> ids = {1, 2, 2, 10 + r};
        std::vector<long long> keys;
        if (ordered) keys = {10 * r, 10 * r + 1, 10 * r + 2, 10 * r + 3};
        GatherScatter gs(world, ids, Method::kPairwise, keys);
        const std::size_t slots = ids.size();
        std::vector<double> longer(slots + 1, 1.0);
        std::vector<double> shorter(slots - 1, 1.0);
        std::vector<double> two(2 * slots, 1.0);
        EXPECT_THROW(gs.exec(std::span<double>(longer), ReduceOp::kSum),
                     std::invalid_argument) << where;
        EXPECT_THROW(gs.exec(std::span<double>(shorter), ReduceOp::kSum),
                     std::invalid_argument) << where;
        EXPECT_THROW(gs.exec_many(std::span<double>(two), 0, ReduceOp::kSum),
                     std::invalid_argument) << where;
        EXPECT_THROW(gs.exec_many(std::span<double>(two), 3, ReduceOp::kSum),
                     std::invalid_argument) << where;
        EXPECT_THROW(gs.exec_many(std::span<double>(two), -1, ReduceOp::kSum),
                     std::invalid_argument) << where;

        std::vector<double> v = {1, 1, 1, 1,   // field 0: copy counts
                                 1, 2, 3, 4};  // field 1
        gs.exec_many(std::span<double>(v), 2, ReduceOp::kSum);
        const double p = ranks;
        const std::vector<double> want = {p, 2 * p, 2 * p, 1,
                                          p, 5 * p, 5 * p, 4};
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_EQ(v[i], want[i]) << where << ", value " << i;
        }
      });
    }
  }
}

// --- multi-field gs (gs_op_fields) --------------------------------------------

class GsManyMethods : public ::testing::TestWithParam<Method> {};

TEST_P(GsManyMethods, ExecManyMatchesPerFieldExec) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  const int nf = 3;
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    const std::size_t slots = my_ids.size();
    GatherScatter gs(world, my_ids, GetParam());

    // Field-major values; duplicate set for the per-field reference.
    std::vector<double> batched(nf * slots), reference(nf * slots);
    for (int f = 0; f < nf; ++f) {
      for (std::size_t s = 0; s < slots; ++s) {
        double v = slot_value(55 + f, world.rank(), s);
        batched[f * slots + s] = v;
        reference[f * slots + s] = v;
      }
    }
    gs.exec_many(std::span<double>(batched), nf, ReduceOp::kSum);
    for (int f = 0; f < nf; ++f) {
      gs.exec(std::span<double>(reference.data() + f * slots, slots),
              ReduceOp::kSum);
    }
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ASSERT_NEAR(batched[i], reference[i], 1e-11) << "index " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllMethods, GsManyMethods,
                         ::testing::Values(Method::kPairwise,
                                           Method::kCrystalRouter,
                                           Method::kAllReduce),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           switch (info.param) {
                             case Method::kPairwise: return "pairwise";
                             case Method::kCrystalRouter: return "crystal";
                             default: return "allreduce";
                           }
                         });

TEST(GsMany, SingleFieldDegeneratesToExec) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {3, 9, 9};
    GatherScatter gs(world, ids, Method::kPairwise);
    std::vector<double> a = {1.0, 2.0, 3.0}, b = a;
    gs.exec(std::span<double>(a), ReduceOp::kMax);
    gs.exec_many(std::span<double>(b), 1, ReduceOp::kMax);
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  });
}

TEST(GsMany, FieldsDoNotContaminateEachOther) {
  // Field 0 all zeros, field 1 all ones: sums must stay field-local.
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {42};  // one id shared by both ranks
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<double> v = {0.0, 1.0};  // [field0, field1]
    gs.exec_many(std::span<double>(v), 2, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  });
}

// --- ordered mode (per-slot keys) --------------------------------------------

// One copy of an id: the id, the copy's globally unique key and its value in
// each of up to three fields. The triples alone define an ordered gs_op's
// result, whichever ranks hold them.
struct KeyedCopy {
  long long id = 0;
  long long key = 0;
  std::array<double, 3> values = {};
};

// 24 ids with 1 to 4 copies each (60 copies). Keys are a permutation that
// follows neither the id order nor any dealing order, and the values span
// six decades, so folding in any other order changes the bits of a sum.
std::vector<KeyedCopy> keyed_copies() {
  std::vector<KeyedCopy> copies;
  for (int i = 0; i < 24; ++i) {
    for (int c = 0; c <= i % 4; ++c) copies.push_back({3000 + 17LL * i});
  }
  const long long n = static_cast<long long>(copies.size());  // 60
  const double scale[] = {1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3};
  for (long long j = 0; j < n; ++j) {
    copies[j].key = 1000 + 7 * ((37 * j + 11) % n);  // 37 is prime to 60
    for (int f = 0; f < 3; ++f) {
      cmtbone::util::SplitMix64 rng(std::uint64_t(101 * j + f));
      copies[j].values[f] = rng.uniform(-1.0, 1.0) * scale[(j + 3 * f) % 7];
    }
  }
  return copies;
}

std::vector<int> deal_round_robin(std::size_t ncopies, int ranks) {
  std::vector<int> rank_of(ncopies);
  for (std::size_t j = 0; j < ncopies; ++j) rank_of[j] = int(j % ranks);
  return rank_of;
}

std::vector<int> deal_scrambled(std::size_t ncopies, int ranks) {
  std::vector<int> rank_of(ncopies);
  for (std::size_t j = 0; j < ncopies; ++j) {
    cmtbone::util::SplitMix64 rng(std::uint64_t(7919 * j + 5));
    rank_of[j] = int(rng.next() % std::uint64_t(ranks));
  }
  return rank_of;
}

// Serial oracle: each id folds its copies, starting from the op identity,
// in ascending-key order.
std::map<long long, std::array<double, 3>> key_order_oracle(
    std::vector<KeyedCopy> copies, ReduceOp op) {
  std::sort(copies.begin(), copies.end(),
            [](const KeyedCopy& a, const KeyedCopy& b) { return a.key < b.key; });
  double identity = 0.0;
  switch (op) {
    case ReduceOp::kSum: identity = 0.0; break;
    case ReduceOp::kProd: identity = 1.0; break;
    case ReduceOp::kMin: identity = std::numeric_limits<double>::max(); break;
    case ReduceOp::kMax: identity = std::numeric_limits<double>::lowest(); break;
  }
  std::map<long long, std::array<double, 3>> out;
  for (const KeyedCopy& c : copies) {
    auto [it, fresh] = out.try_emplace(c.id);
    if (fresh) it->second.fill(identity);
    for (int f = 0; f < 3; ++f) {
      it->second[f] = cmtbone::comm::apply(op, it->second[f], c.values[f]);
    }
  }
  return out;
}

// One ordered exec_many over `copies`, copy j held by rank rank_of[j] (in
// ascending j within a rank). Returns every copy's result, indexed like
// `copies`.
std::vector<std::array<double, 3>> run_ordered(
    const std::vector<KeyedCopy>& copies, int ranks,
    const std::vector<int>& rank_of, ReduceOp op, int nfields) {
  std::vector<std::array<double, 3>> out(copies.size());
  cmtbone::comm::run(ranks, [&](Comm& world) {
    std::vector<std::size_t> held;
    std::vector<long long> ids, keys;
    for (std::size_t j = 0; j < copies.size(); ++j) {
      if (rank_of[j] != world.rank()) continue;
      held.push_back(j);
      ids.push_back(copies[j].id);
      keys.push_back(copies[j].key);
    }
    GatherScatter gs(world, ids, Method::kPairwise, keys);
    const std::size_t slots = held.size();
    std::vector<double> v(slots * nfields);
    for (int f = 0; f < nfields; ++f) {
      for (std::size_t s = 0; s < slots; ++s) {
        v[f * slots + s] = copies[held[s]].values[f];
      }
    }
    gs.exec_many(std::span<double>(v), nfields, op);
    // Each rank writes only the copies it holds.
    for (int f = 0; f < nfields; ++f) {
      for (std::size_t s = 0; s < slots; ++s) {
        out[held[s]][f] = v[f * slots + s];
      }
    }
  });
  return out;
}

TEST(GsOrdered, MatchesTheKeyOrderOracleHoweverTheCopiesAreDealt) {
  // Exact equality with one oracle under both dealings also means the two
  // dealings give identical bits.
  const std::vector<KeyedCopy> copies = keyed_copies();
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax,
                      ReduceOp::kProd}) {
    const auto want = key_order_oracle(copies, op);
    for (int ranks = 1; ranks <= 4; ++ranks) {
      for (bool scrambled : {false, true}) {
        const std::vector<int> rank_of =
            scrambled ? deal_scrambled(copies.size(), ranks)
                      : deal_round_robin(copies.size(), ranks);
        for (int nfields : {1, 3}) {
          const auto got = run_ordered(copies, ranks, rank_of, op, nfields);
          for (std::size_t j = 0; j < copies.size(); ++j) {
            for (int f = 0; f < nfields; ++f) {
              ASSERT_EQ(got[j][f], want.at(copies[j].id)[f])
                  << "op " << int(op) << ", " << ranks << " ranks, scrambled "
                  << scrambled << ", nfields " << nfields << ", copy " << j
                  << ", field " << f;
            }
          }
        }
      }
    }
  }
}

TEST(GsOrdered, MethodIsPairwiseWhateverWasRequested) {
  // Ordered mode runs its own pairwise-pattern exchange, so that is the
  // method it reports, and there is nothing for tune() to pick.
  const std::vector<KeyedCopy> copies = keyed_copies();
  const std::vector<int> rank_of = deal_round_robin(copies.size(), 2);
  cmtbone::comm::run(2, [&](Comm& world) {
    std::vector<long long> ids, keys;
    for (std::size_t j = 0; j < copies.size(); ++j) {
      if (rank_of[j] != world.rank()) continue;
      ids.push_back(copies[j].id);
      keys.push_back(copies[j].key);
    }
    for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                     Method::kAllReduce, Method::kAuto}) {
      GatherScatter gs(world, ids, m, keys);
      EXPECT_TRUE(gs.ordered());
      EXPECT_EQ(gs.method(), Method::kPairwise)
          << "requested " << cmtbone::gs::method_name(m);
      EXPECT_EQ(gs.tune(), Method::kPairwise);
    }
  });
}

TEST(GsAuto, TuningPicksSomeMethodAndRecordsAllThree) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kAuto);
    EXPECT_NE(gs.method(), Method::kAuto);
    ASSERT_EQ(gs.tuning().size(), 3u);
    for (const auto& row : gs.tuning()) {
      EXPECT_GE(row.min, 0.0);
      EXPECT_LE(row.min, row.avg + 1e-12);
      EXPECT_LE(row.avg, row.max + 1e-12);
    }
  });
}

TEST(GsAuto, SelectionAgreesAcrossRanks) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  std::vector<Method> chosen(spec.nranks());
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kAuto);
    EXPECT_NE(gs.method(), Method::kAuto);
    // Measured costs for all three algorithms back the choice.
    EXPECT_EQ(gs.tuning().size(), 3u);
    chosen[world.rank()] = gs.method();
  });
  // A rank-divergent pick would deadlock the collective algorithms; the
  // tuner reduces its timings across ranks so every rank lands on one
  // method.
  for (int r = 1; r < spec.nranks(); ++r) {
    EXPECT_EQ(chosen[r], chosen[0]) << "rank " << r;
  }
}

TEST(GsAuto, SelectionIsBitIdenticalToForcedMethod) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter auto_gs(world, ids[world.rank()], Method::kAuto);
    const Method picked = auto_gs.method();
    GatherScatter forced_gs(world, ids[world.rank()], picked);

    const auto& my_ids = ids[world.rank()];
    std::vector<double> a(my_ids.size()), b(my_ids.size());
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      a[s] = b[s] = slot_value(17, world.rank(), s);
    }
    auto_gs.exec(std::span<double>(a), ReduceOp::kSum);
    forced_gs.exec(std::span<double>(b), ReduceOp::kSum);
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      EXPECT_EQ(a[s], b[s]) << "slot " << s;  // exact, not approximate
    }
  });
}

TEST(GsAuto, DriverFieldsBitIdenticalToForcedMethodAcrossRanksAndOverlap) {
  for (int ranks : {1, 2, 4}) {
    for (bool overlap : {false, true}) {
      auto run_fields = [&](cmtbone::gs::Method method,
                            cmtbone::gs::Method* picked) {
        std::vector<std::vector<double>> fields;
        cmtbone::comm::run(ranks, [&](Comm& world) {
          cmtbone::core::Config cfg;
          cfg.n = 4;
          cfg.ex = cfg.ey = cfg.ez = 2;
          auto grid = cmtbone::mesh::BoxSpec::default_proc_grid(ranks);
          cfg.px = grid[0];
          cfg.py = grid[1];
          cfg.pz = grid[2];
          cfg.gs_method = method;
          cfg.overlap = overlap;
          cmtbone::core::Driver driver(world, cfg);
          driver.initialize(driver.default_ic());
          driver.run(2);
          if (world.rank() == 0) {
            if (picked != nullptr) {
              *picked = driver.gather_scatter().method();
            }
            for (int f = 0; f < driver.nfields(); ++f) {
              auto span = driver.field(f);
              fields.emplace_back(span.begin(), span.end());
            }
          }
        });
        return fields;
      };

      cmtbone::gs::Method picked = Method::kAuto;
      const auto auto_fields = run_fields(Method::kAuto, &picked);
      ASSERT_NE(picked, Method::kAuto);
      const auto forced_fields = run_fields(picked, nullptr);

      ASSERT_EQ(auto_fields.size(), forced_fields.size());
      for (std::size_t f = 0; f < auto_fields.size(); ++f) {
        ASSERT_EQ(auto_fields[f].size(), forced_fields[f].size());
        for (std::size_t i = 0; i < auto_fields[f].size(); ++i) {
          ASSERT_EQ(auto_fields[f][i], forced_fields[f][i])
              << ranks << " ranks, overlap " << overlap << ", field " << f
              << ", node " << i;
        }
      }
    }
  }
}

TEST(GsAuto, ReselectionAfterApplyLayoutAgreesAcrossRanks) {
  // Element migration rebuilds the topology, which re-runs the kAuto
  // tuning against the *new* exchange. The selection must resolve to a
  // concrete method and — because it feeds a collective exchange — every
  // rank must land on the same one, before and after the migration.
  constexpr int kRanks = 4;
  std::vector<Method> before(kRanks, Method::kAuto);
  std::vector<Method> after(kRanks, Method::kAuto);
  cmtbone::comm::run(kRanks, [&](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 3;
    cfg.ex = cfg.ey = cfg.ez = 2;
    auto grid = cmtbone::mesh::BoxSpec::default_proc_grid(kRanks);
    cfg.px = grid[0];
    cfg.py = grid[1];
    cfg.pz = grid[2];
    cfg.gs_method = Method::kAuto;
    cfg.fixed_dt = 1e-3;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(1);
    before[world.rank()] = driver.gather_scatter().method();

    // Rotate every element's owner by one rank: ownership changes for all
    // gids but each rank keeps the same element count.
    std::vector<int> owner = driver.element_layout().owner();
    for (int& r : owner) r = (r + 1) % kRanks;
    driver.apply_layout(owner);
    after[world.rank()] = driver.gather_scatter().method();
    driver.run(1);  // the re-selected handle must actually carry a step
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_NE(before[r], Method::kAuto) << "rank " << r;
    EXPECT_EQ(before[r], before[0]) << "rank " << r << " disagrees pre-move";
    EXPECT_NE(after[r], Method::kAuto) << "rank " << r;
    EXPECT_EQ(after[r], after[0]) << "rank " << r << " disagrees post-move";
  }
}

TEST(GsEdge, SingleRankHasNoSharersAndExecIsLocalOnly) {
  cmtbone::comm::run(1, [](Comm& world) {
    std::vector<long long> ids = {4, 4, 9};
    GatherScatter gs(world, ids, Method::kPairwise);
    EXPECT_TRUE(gs.topology().shared.empty());
    std::vector<double> v = {1.0, 2.0, 5.0};
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    // Local duplicates still fold.
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 3.0);
    EXPECT_DOUBLE_EQ(v[2], 5.0);
  });
}

TEST(GsEdge, EmptySlotListIsFine) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids;
    if (world.rank() == 1) ids = {3, 4};
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<double> v(ids.size(), 2.0);
    gs.exec(std::span<double>(v), ReduceOp::kSum);
    if (world.rank() == 1) {
      EXPECT_DOUBLE_EQ(v[0], 2.0);  // nothing shared, values unchanged
    }
  });
}

TEST(GsEdge, TwoHandlesOnOneCommunicatorDoNotInterfere) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids_a = {1, 2};
    std::vector<long long> ids_b = {2, 3};
    GatherScatter a(world, ids_a, Method::kPairwise);
    GatherScatter b(world, ids_b, Method::kPairwise);
    std::vector<double> va = {1.0, 1.0}, vb = {10.0, 10.0};
    a.exec(std::span<double>(va), ReduceOp::kSum);
    b.exec(std::span<double>(vb), ReduceOp::kSum);
    // Both ranks hold both ids, so every entry doubles within its handle.
    EXPECT_DOUBLE_EQ(va[0], 2.0);
    EXPECT_DOUBLE_EQ(vb[0], 20.0);
  });
}

TEST(GsStructure, PairwiseNeighborsAreFaceEdgeCornerRanks) {
  // On a periodic 2x2x1 grid each rank shares points with every other rank.
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kPairwise);
    auto nbrs = gs.pairwise_neighbors();
    EXPECT_EQ(int(nbrs.size()), world.size() - 1);
    EXPECT_GT(gs.pairwise_send_values(), 0u);
    EXPECT_GT(gs.big_vector_size(), 0);
  });
}

// --- crystal router as a generic router ---------------------------------------

struct Rec {
  int payload;
  int check;
};

class CrystalRoute : public ::testing::TestWithParam<int> {};

TEST_P(CrystalRoute, DeliversEveryRecordToItsDestination) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    // Every rank sends 3 records to every rank (including itself).
    std::vector<Rec> records;
    std::vector<int> dest;
    for (int d = 0; d < p; ++d) {
      for (int c = 0; c < 3; ++c) {
        records.push_back({world.rank() * 1000 + d * 10 + c, d});
        dest.push_back(d);
      }
    }
    auto got = router.route_records(std::span<const Rec>(records), dest);
    ASSERT_EQ(int(got.size()), 3 * p);
    // Expect exactly records {src*1000 + me*10 + c} for all src, c.
    std::vector<int> payloads;
    for (const Rec& r : got) {
      EXPECT_EQ(r.check, world.rank());
      payloads.push_back(r.payload);
    }
    std::sort(payloads.begin(), payloads.end());
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(payloads[pos++], src * 1000 + world.rank() * 10 + c);
      }
    }
  });
}

TEST_P(CrystalRoute, EmptyInjectionIsFine) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    auto got = router.route_records(std::span<const Rec>(), {});
    EXPECT_TRUE(got.empty());
  });
}

TEST_P(CrystalRoute, StageCountIsCeilLog2) {
  // Ranks in a smaller half may finish early; the deepest rank goes exactly
  // ceil(log2 P) stages.
  const int p = GetParam();
  if (p == 1) return;
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    std::vector<Rec> one = {{1, 0}};
    std::vector<int> dest = {0};
    router.route_records(std::span<const Rec>(one), dest);
    int expected = 0;
    while ((1 << expected) < p) ++expected;
    int deepest = int(world.allreduce_one(double(router.stages()),
                                          cmtbone::comm::ReduceOp::kMax));
    EXPECT_EQ(deepest, expected);
    EXPECT_LE(router.stages(), expected);
    EXPECT_GE(router.stages(), 1);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CrystalRoute,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 11, 16));

// ---- degenerate topologies under chaos -------------------------------------
//
// Each case runs all three exchange algorithms against the serial oracle
// while a seeded ChaosEngine delays and reorders the runtime's messages.
// Degenerate sharing patterns exercise the empty-message and
// nothing-to-exchange paths, where a chaos hold with no follow-up traffic
// would expose any missed pump.

void check_gs_under_chaos(const std::vector<std::vector<long long>>& ids,
                          Method method, std::uint64_t chaos_seed) {
  const int p = int(ids.size());
  const std::uint64_t value_seed = 0xbeef;
  auto expected = oracle_reduce(ids, value_seed, ReduceOp::kSum);
  cmtbone::chaos::ChaosEngine engine(
      cmtbone::chaos::ChaosPolicy::for_seed(chaos_seed, p), p);
  cmtbone::comm::RunOptions options;
  options.chaos = &engine;
  cmtbone::comm::run(
      p,
      [&](Comm& world) {
        const auto& my_ids = ids[world.rank()];
        GatherScatter gs(world, my_ids, method);
        std::vector<double> values(my_ids.size());
        for (std::size_t s = 0; s < values.size(); ++s) {
          values[s] = slot_value(value_seed, world.rank(), s);
        }
        gs.exec(std::span<double>(values), ReduceOp::kSum);
        for (std::size_t s = 0; s < values.size(); ++s) {
          ASSERT_NEAR(values[s], expected.at(my_ids[s]), 1e-9)
              << "method=" << cmtbone::gs::method_name(method)
              << " rank=" << world.rank() << " slot=" << s;
        }
      },
      options);
}

const Method kAllGsMethods[] = {Method::kPairwise, Method::kCrystalRouter,
                                Method::kAllReduce};

TEST(GsChaos, SingleRankUnderChaos) {
  std::vector<std::vector<long long>> ids = {{0, 1, 2, 1, 0}};
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, EmptySharedSetUnderChaos) {
  // Disjoint id ranges: the nonlocal exchange has nothing to move.
  std::vector<std::vector<long long>> ids = {
      {0, 1, 2}, {10, 11, 12}, {20, 21, 22}, {30, 31, 32}};
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, AllIdsSharedByEveryRankUnderChaos) {
  // Every rank holds every id: maximal sharing, every pair exchanges.
  std::vector<std::vector<long long>> ids(4, {0, 1, 2, 3, 4, 5});
  for (Method m : kAllGsMethods) {
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
      check_gs_under_chaos(ids, m, seed);
    }
  }
}

TEST(GsChaos, MeshPartitionUnderChaos) {
  // The realistic workload (mesh-derived ids) under a couple of seeds.
  auto ids = mesh_ids(small_spec(2, 2, 1));
  for (Method m : kAllGsMethods) {
    check_gs_under_chaos(ids, m, 3);
  }
}

}  // namespace

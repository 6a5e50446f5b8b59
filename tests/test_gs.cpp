// Gather-scatter library: discovery, the three exchange algorithms, and
// agreement with a serial oracle.

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/crystal.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/face_numbering.hpp"
#include "mesh/numbering.hpp"
#include "mesh/partition.hpp"
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

// Build per-rank slot ids from a mesh partition (the realistic workload).
std::vector<std::vector<long long>> mesh_ids(const cmtbone::mesh::BoxSpec& spec) {
  std::vector<std::vector<long long>> ids(spec.nranks());
  for (int r = 0; r < spec.nranks(); ++r) {
    cmtbone::mesh::Partition part(spec, r);
    ids[r] = cmtbone::mesh::global_gll_ids(part);
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

TEST(GsReference, FacePointGids) {
  for (const auto& g : kProcGrids) {
    for (bool periodic : {true, false}) {
      auto spec = small_spec(g[0], g[1], g[2]);
      spec.periodic = periodic;
      std::vector<std::vector<long long>> ids(spec.nranks());
      for (int r = 0; r < spec.nranks(); ++r) {
        ids[r] = cmtbone::mesh::face_point_gids(
            cmtbone::mesh::Partition(spec, r));
      }
      expect_reference_topology(ids, "face points");
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
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> base(my_ids.size());
    for (std::size_t s = 0; s < base.size(); ++s) {
      base[s] = slot_value(77, world.rank(), s);
    }
    std::vector<double> a = base, b = base, c = base;
    gs.exec_with(std::span<double>(a), ReduceOp::kSum, Method::kPairwise);
    gs.exec_with(std::span<double>(b), ReduceOp::kSum, Method::kCrystalRouter);
    gs.exec_with(std::span<double>(c), ReduceOp::kSum, Method::kAllReduce);
    for (std::size_t s = 0; s < base.size(); ++s) {
      ASSERT_NEAR(a[s], b[s], 1e-11);
      ASSERT_NEAR(a[s], c[s], 1e-11);
    }
  });
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

// --- typed gs (gslib datatype set) ---------------------------------------------

TEST(GsTyped, LongLongSumAcrossAllMethods) {
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  // Oracle: copies per id (each slot contributes rank+1).
  std::map<long long, long long> oracle;
  for (int r = 0; r < spec.nranks(); ++r) {
    for (long long id : ids[r]) oracle[id] += r + 1;
  }
  for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                   Method::kAllReduce}) {
    cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
      const auto& my_ids = ids[world.rank()];
      GatherScatter gs(world, my_ids, m);
      std::vector<long long> v(my_ids.size(), world.rank() + 1);
      gs.exec_typed(std::span<long long>(v), ReduceOp::kSum);
      for (std::size_t s = 0; s < v.size(); ++s) {
        ASSERT_EQ(v[s], oracle.at(my_ids[s]))
            << cmtbone::gs::method_name(m) << " rank " << world.rank();
      }
    });
  }
}

TEST(GsTyped, IntMaxPicksLargestRank) {
  cmtbone::comm::run(3, [](Comm& world) {
    std::vector<long long> ids = {7, 100 + world.rank()};
    GatherScatter gs(world, ids, Method::kCrystalRouter);
    std::vector<int> v = {world.rank() * 10, -1};
    gs.exec_typed(std::span<int>(v), ReduceOp::kMax);
    EXPECT_EQ(v[0], 20);   // shared by all three ranks
    EXPECT_EQ(v[1], -1);   // private
  });
}

TEST(GsTyped, FloatMatchesDoubleWithinPrecision) {
  auto spec = small_spec(2, 1, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const auto& my_ids = ids[world.rank()];
    GatherScatter gs(world, my_ids, Method::kPairwise);
    std::vector<double> vd(my_ids.size());
    std::vector<float> vf(my_ids.size());
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      vd[s] = slot_value(31, world.rank(), s);
      vf[s] = float(vd[s]);
    }
    gs.exec(std::span<double>(vd), ReduceOp::kSum);
    gs.exec_typed(std::span<float>(vf), ReduceOp::kSum);
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      ASSERT_NEAR(vf[s], vd[s], 1e-4 * std::max(1.0, std::abs(vd[s])));
    }
  });
}

TEST(GsTyped, MultiFieldIntegers) {
  cmtbone::comm::run(2, [](Comm& world) {
    std::vector<long long> ids = {5};
    GatherScatter gs(world, ids, Method::kAllReduce);
    // Field 0 sums ranks, field 1 takes component-wise products... (sum op
    // applies to both fields; values differ per field).
    std::vector<int> v = {world.rank() + 1, (world.rank() + 1) * 100};
    gs.exec_many_typed(std::span<int>(v), 2, ReduceOp::kSum,
                       Method::kAllReduce);
    EXPECT_EQ(v[0], 3);
    EXPECT_EQ(v[1], 300);
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

// --- model-driven selection (Method::kModel) ------------------------------------

// Clears the process-wide calibrated machine on scope exit so a failing
// assertion cannot leak calibration into later tests.
struct CalibrationGuard {
  explicit CalibrationGuard(const cmtbone::netmodel::LogGPParams& p) {
    cmtbone::netmodel::set_calibrated_machine(p);
  }
  ~CalibrationGuard() { cmtbone::netmodel::clear_calibrated_machine(); }
};

TEST(GsModel, WithoutCalibrationFallsBackToMeasuredTuning) {
  cmtbone::netmodel::clear_calibrated_machine();
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kModel);
    EXPECT_NE(gs.method(), Method::kModel);
    EXPECT_NE(gs.method(), Method::kAuto);
    // The fallback is tune(), which measures all three algorithms.
    EXPECT_EQ(gs.tuning().size(), 3u);
  });
}

TEST(GsModel, CalibratedSelectionAgreesAcrossRanks) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  std::vector<Method> chosen(spec.nranks());
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter gs(world, ids[world.rank()], Method::kModel);
    EXPECT_NE(gs.method(), Method::kModel);
    // Predicted costs for all three algorithms back the choice.
    EXPECT_EQ(gs.tuning().size(), 3u);
    chosen[world.rank()] = gs.method();
  });
  // A rank-divergent pick would deadlock the collective algorithms; the
  // selector reduces predictions so every rank lands on one method.
  for (int r = 1; r < spec.nranks(); ++r) {
    EXPECT_EQ(chosen[r], chosen[0]) << "rank " << r;
  }
}

TEST(GsModel, ModelSelectionIsBitIdenticalToForcedMethod) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  auto spec = small_spec(2, 2, 1);
  auto ids = mesh_ids(spec);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    GatherScatter model_gs(world, ids[world.rank()], Method::kModel);
    const Method picked = model_gs.method();
    GatherScatter forced_gs(world, ids[world.rank()], picked);

    const auto& my_ids = ids[world.rank()];
    std::vector<double> a(my_ids.size()), b(my_ids.size());
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      a[s] = b[s] = slot_value(17, world.rank(), s);
    }
    model_gs.exec(std::span<double>(a), ReduceOp::kSum);
    forced_gs.exec(std::span<double>(b), ReduceOp::kSum);
    for (std::size_t s = 0; s < my_ids.size(); ++s) {
      EXPECT_EQ(a[s], b[s]) << "slot " << s;  // exact, not approximate
    }
  });
}

TEST(GsModel, DriverFieldsBitIdenticalToForcedMethodAcrossRanksAndOverlap) {
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
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

      cmtbone::gs::Method picked = Method::kModel;
      const auto model_fields = run_fields(Method::kModel, &picked);
      ASSERT_NE(picked, Method::kModel);
      const auto forced_fields = run_fields(picked, nullptr);

      ASSERT_EQ(model_fields.size(), forced_fields.size());
      for (std::size_t f = 0; f < model_fields.size(); ++f) {
        ASSERT_EQ(model_fields[f].size(), forced_fields[f].size());
        for (std::size_t i = 0; i < model_fields[f].size(); ++i) {
          ASSERT_EQ(model_fields[f][i], forced_fields[f][i])
              << ranks << " ranks, overlap " << overlap << ", field " << f
              << ", node " << i;
        }
      }
    }
  }
}

TEST(GsModel, ReselectionAfterApplyLayoutAgreesAcrossRanks) {
  // Element migration rebuilds the topology, which re-runs the kModel
  // selection against the *new* exchange shape. The selection must resolve
  // to a concrete method and — because it feeds a collective exchange —
  // every rank must land on the same one, before and after the migration.
  CalibrationGuard cal(cmtbone::netmodel::qdr_infiniband());
  constexpr int kRanks = 4;
  std::vector<Method> before(kRanks, Method::kModel);
  std::vector<Method> after(kRanks, Method::kModel);
  cmtbone::comm::run(kRanks, [&](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 3;
    cfg.ex = cfg.ey = cfg.ez = 2;
    auto grid = cmtbone::mesh::BoxSpec::default_proc_grid(kRanks);
    cfg.px = grid[0];
    cfg.py = grid[1];
    cfg.pz = grid[2];
    cfg.gs_method = Method::kModel;
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
    EXPECT_NE(before[r], Method::kModel) << "rank " << r;
    EXPECT_NE(before[r], Method::kAuto) << "rank " << r;
    EXPECT_EQ(before[r], before[0]) << "rank " << r << " disagrees pre-move";
    EXPECT_NE(after[r], Method::kModel) << "rank " << r;
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

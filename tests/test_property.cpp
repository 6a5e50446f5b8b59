// Property and fuzz tests: randomized inputs checked against serial
// oracles and algebraic invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "gs/crystal.hpp"
#include "gs/gather_scatter.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"
#include "layouts.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/faces.hpp"
#include "mesh/layout.hpp"
#include "mesh/partition.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::comm::ReduceOp;
using cmtbone::gs::GatherScatter;
using cmtbone::gs::Method;
using cmtbone::test::kOwnerMaps;
using cmtbone::test::layout_of;
using cmtbone::test::owner_map;
using cmtbone::test::owner_map_name;
using cmtbone::test::OwnerMap;
using cmtbone::util::SplitMix64;

// --- randomized gs against the serial oracle ---------------------------------

class GsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GsFuzz, RandomIdSetsMatchOracleForAllMethods) {
  // Random rank count, random overlapping id sets (with in-rank repeats),
  // random values: every method must agree with the serial reduction.
  SplitMix64 rng(1000 + GetParam());
  const int p = 2 + int(rng.below(7));            // 2..8 ranks
  const int universe = 5 + int(rng.below(40));    // ids drawn from [0,universe)
  const ReduceOp op =
      std::array{ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax}[rng.below(3)];

  std::vector<std::vector<long long>> ids(p);
  std::vector<std::vector<double>> vals(p);
  for (int r = 0; r < p; ++r) {
    const int slots = 1 + int(rng.below(30));
    for (int s = 0; s < slots; ++s) {
      ids[r].push_back(static_cast<long long>(rng.below(universe)));
      vals[r].push_back(rng.uniform(-5.0, 5.0));
    }
  }

  std::map<long long, double> oracle;
  for (int r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < ids[r].size(); ++s) {
      auto [it, fresh] = oracle.try_emplace(ids[r][s], vals[r][s]);
      if (!fresh) it->second = cmtbone::comm::apply(op, it->second, vals[r][s]);
    }
  }

  for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                   Method::kAllReduce}) {
    cmtbone::comm::run(p, [&](Comm& world) {
      GatherScatter gs(world, ids[world.rank()], m);
      std::vector<double> v = vals[world.rank()];
      gs.exec(std::span<double>(v), op);
      for (std::size_t s = 0; s < v.size(); ++s) {
        ASSERT_NEAR(v[s], oracle.at(ids[world.rank()][s]), 1e-11)
            << "method=" << cmtbone::gs::method_name(m)
            << " rank=" << world.rank() << " slot=" << s;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GsFuzz, ::testing::Range(0, 12));

// --- randomized crystal routing ------------------------------------------------

class CrystalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CrystalFuzz, RandomDestinationsDeliverExactMultiset) {
  SplitMix64 rng(4000 + GetParam());
  const int p = 2 + int(rng.below(9));  // 2..10 ranks

  // Pre-generate each rank's payloads and the expected arrivals.
  struct Rec {
    long long tagval;
  };
  std::vector<std::vector<Rec>> records(p);
  std::vector<std::vector<int>> dest(p);
  std::vector<std::vector<long long>> expected(p);
  for (int r = 0; r < p; ++r) {
    const int count = int(rng.below(25));
    for (int c = 0; c < count; ++c) {
      int d = int(rng.below(p));
      long long v = static_cast<long long>(rng.next() >> 8);
      records[r].push_back({v});
      dest[r].push_back(d);
      expected[d].push_back(v);
    }
  }
  for (auto& e : expected) std::sort(e.begin(), e.end());

  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::gs::CrystalRouter router(world);
    auto got = router.route_records(
        std::span<const Rec>(records[world.rank()]), dest[world.rank()]);
    std::vector<long long> arrived;
    for (const Rec& rec : got) arrived.push_back(rec.tagval);
    std::sort(arrived.begin(), arrived.end());
    ASSERT_EQ(arrived, expected[world.rank()]) << "rank " << world.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrystalFuzz, ::testing::Range(0, 10));

// --- randomized alltoallv -------------------------------------------------------

class AlltoallvFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallvFuzz, RandomCountsRoundTrip) {
  SplitMix64 rng(7000 + GetParam());
  const int p = 2 + int(rng.below(7));

  // counts[src][dst] and the values each src sends to each dst.
  std::vector<std::vector<int>> counts(p, std::vector<int>(p));
  std::vector<std::vector<std::vector<double>>> payload(
      p, std::vector<std::vector<double>>(p));
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      counts[s][d] = int(rng.below(6));  // 0..5, zeros included
      for (int c = 0; c < counts[s][d]; ++c) {
        payload[s][d].push_back(rng.uniform(-1, 1));
      }
    }
  }

  cmtbone::comm::run(p, [&](Comm& world) {
    const int me = world.rank();
    std::vector<double> send;
    for (int d = 0; d < p; ++d) {
      send.insert(send.end(), payload[me][d].begin(), payload[me][d].end());
    }
    std::vector<int> rcounts;
    auto got = world.alltoallv(std::span<const double>(send),
                               std::span<const int>(counts[me]), &rcounts);
    std::size_t pos = 0;
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(rcounts[s], counts[s][me]);
      for (double v : payload[s][me]) {
        ASSERT_DOUBLE_EQ(got[pos++], v);
      }
    }
    ASSERT_EQ(pos, got.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlltoallvFuzz, ::testing::Range(0, 8));

// --- randomized mxm shapes vs naive --------------------------------------------

class MxmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MxmFuzz, RandomShapesMatchNaive) {
  SplitMix64 rng(9000 + GetParam());
  const int n1 = 1 + int(rng.below(24));
  const int n2 = 1 + int(rng.below(24));
  const int n3 = 1 + int(rng.below(24));
  std::vector<double> a(std::size_t(n1) * n2), b(std::size_t(n2) * n3),
      c(std::size_t(n1) * n3);
  for (double& x : a) x = rng.uniform(-1, 1);
  for (double& x : b) x = rng.uniform(-1, 1);
  cmtbone::kernels::mxm(a.data(), n1, b.data(), n2, c.data(), n3);
  for (int j = 0; j < n3; ++j) {
    for (int i = 0; i < n1; ++i) {
      double s = 0.0;
      for (int l = 0; l < n2; ++l) {
        s += a[i + std::size_t(n1) * l] * b[l + std::size_t(n2) * j];
      }
      ASSERT_NEAR(c[i + std::size_t(n1) * j], s, 1e-12 * std::max(1.0, std::abs(s)))
          << n1 << "x" << n2 << "x" << n3;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MxmFuzz, ::testing::Range(0, 16));

// --- gradient linearity property -------------------------------------------------

TEST(GradProperty, LinearityInTheField) {
  // grad(a*u + b*v) == a*grad(u) + b*grad(v) for every variant/direction.
  SplitMix64 rng(77);
  const int n = 7, nel = 2;
  const std::size_t pts = std::size_t(n) * n * n * nel;
  std::vector<double> d(std::size_t(n) * n), u(pts), v(pts), w(pts);
  for (double& x : d) x = rng.uniform(-1, 1);
  for (double& x : u) x = rng.uniform(-1, 1);
  for (double& x : v) x = rng.uniform(-1, 1);
  const double a = 2.5, b = -0.75;
  for (std::size_t i = 0; i < pts; ++i) w[i] = a * u[i] + b * v[i];

  std::vector<double> gu(pts), gv(pts), gw(pts);
  for (auto variant : cmtbone::kernels::all_variants()) {
    cmtbone::kernels::grad_s(variant, d.data(), u.data(), gu.data(), n, nel);
    cmtbone::kernels::grad_s(variant, d.data(), v.data(), gv.data(), n, nel);
    cmtbone::kernels::grad_s(variant, d.data(), w.data(), gw.data(), n, nel);
    for (std::size_t i = 0; i < pts; ++i) {
      ASSERT_NEAR(gw[i], a * gu[i] + b * gv[i], 1e-11);
    }
  }
}

// --- random specs: every owner map tiles exactly ---------------------------

class PartitionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartitionFuzz, RandomSpecsTileWithoutGapsOrOverlap) {
  SplitMix64 rng(12000 + GetParam());
  cmtbone::mesh::BoxSpec spec;
  spec.n = 2 + int(rng.below(6));
  spec.px = 1 + int(rng.below(4));
  spec.py = 1 + int(rng.below(3));
  spec.pz = 1 + int(rng.below(3));
  spec.ex = spec.px + int(rng.below(8));
  spec.ey = spec.py + int(rng.below(8));
  spec.ez = spec.pz + int(rng.below(8));
  spec.periodic = rng.below(2) == 0;
  spec.validate();

  // Every map's layouts tile the box: each element on exactly one rank, the
  // rank its owner map names. The block layout also matches Partition's
  // block ranges.
  for (OwnerMap kind : kOwnerMaps) {
    const std::vector<int> owner = owner_map(spec, kind, 12000 + GetParam());
    std::set<std::tuple<int, int, int>> covered;
    for (int r = 0; r < spec.nranks(); ++r) {
      const cmtbone::mesh::ElementLayout layout(spec, r, owner);
      const cmtbone::mesh::Partition part(spec, r);
      if (kind == OwnerMap::kBlock) {
        EXPECT_EQ(layout.nel(), part.nel());
      }
      for (int e = 0; e < layout.nel(); ++e) {
        auto g = layout.global_coords(e);
        EXPECT_TRUE(covered.insert({g[0], g[1], g[2]}).second);
        EXPECT_EQ(layout.owner_of(g[0], g[1], g[2]), r);
        if (kind == OwnerMap::kBlock) {
          EXPECT_TRUE(g[0] >= part.x0() && g[0] < part.x1() &&
                      g[1] >= part.y0() && g[1] < part.y1() &&
                      g[2] >= part.z0() && g[2] < part.z1());
        }
      }
    }
    EXPECT_EQ(covered.size(), std::size_t(spec.total_elements()))
        << owner_map_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionFuzz, ::testing::Range(0, 12));

// --- face exchange under random geometries ----------------------------------------

class FaceExchangeFuzz : public ::testing::TestWithParam<int> {};

cmtbone::mesh::BoxSpec random_face_spec(int param) {
  SplitMix64 rng(15000 + param);
  cmtbone::mesh::BoxSpec spec;
  spec.n = 2 + int(rng.below(3));
  spec.px = 1 + int(rng.below(3));
  spec.py = 1 + int(rng.below(2));
  spec.pz = 1 + int(rng.below(2));
  spec.ex = spec.px * (1 + int(rng.below(3)));
  spec.ey = spec.py * (1 + int(rng.below(3)));
  spec.ez = spec.pz * (1 + int(rng.below(3)));
  spec.periodic = rng.below(2) == 0;
  spec.validate();
  return spec;
}

void check_face_exchange(const cmtbone::mesh::BoxSpec& spec, OwnerMap kind,
                         const cmtbone::comm::RunOptions& options) {
  // Every received face value must encode the geometric neighbor's
  // (element, opposite face, a, b).
  auto marker = [](int gx, int gy, int gz, int face, int a, int b) {
    return gx * 1.0e6 + gy * 1.0e4 + gz * 1.0e2 + face * 10.0 + a + 0.01 * b;
  };

  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const cmtbone::mesh::ElementLayout layout =
        layout_of(spec, world.rank(), kind);
    cmtbone::mesh::FaceExchange ex(world, layout);
    const int n = spec.n;
    const int nel = layout.nel();
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, nel);
    std::vector<double> mine(fsz), nbr(fsz, -1);
    for (int e = 0; e < nel; ++e) {
      auto g = layout.global_coords(e);
      for (int f = 0; f < 6; ++f) {
        for (int b = 0; b < n; ++b) {
          for (int a = 0; a < n; ++a) {
            mine[cmtbone::mesh::face_offset(f, e, n) + a + std::size_t(n) * b] =
                marker(g[0], g[1], g[2], f, a, b);
          }
        }
      }
    }
    ex.exchange(mine.data(), nbr.data(), 1);

    const std::array<int, 3> extent = {spec.ex, spec.ey, spec.ez};
    for (int e = 0; e < nel; ++e) {
      auto g = layout.global_coords(e);
      for (int f = 0; f < 6; ++f) {
        int axis = cmtbone::mesh::face_axis(f);
        int dir = cmtbone::mesh::face_side(f) == 0 ? -1 : 1;
        std::array<int, 3> ng = {g[0], g[1], g[2]};
        ng[axis] += dir;
        bool physical = false;
        for (int ax = 0; ax < 3; ++ax) {
          if (ng[ax] < 0 || ng[ax] >= extent[ax]) {
            if (spec.periodic) {
              ng[ax] = (ng[ax] + extent[ax]) % extent[ax];
            } else {
              physical = true;
            }
          }
        }
        for (int b = 0; b < n; ++b) {
          for (int a = 0; a < n; ++a) {
            double got = nbr[cmtbone::mesh::face_offset(f, e, n) + a +
                             std::size_t(n) * b];
            double want =
                physical ? marker(g[0], g[1], g[2], f, a, b)
                         : marker(ng[0], ng[1], ng[2],
                                  cmtbone::mesh::opposite_face(f), a, b);
            ASSERT_DOUBLE_EQ(got, want)
                << "spec " << spec.ex << "x" << spec.ey << "x" << spec.ez
                << " procs " << spec.px << "x" << spec.py << "x" << spec.pz
                << (spec.periodic ? " periodic " : " open ")
                << owner_map_name(kind);
          }
        }
      }
    }
  }, options);
}

TEST_P(FaceExchangeFuzz, RandomSpecsExchangeConsistently) {
  const cmtbone::mesh::BoxSpec spec = random_face_spec(GetParam());
  for (OwnerMap kind : kOwnerMaps) check_face_exchange(spec, kind, {});
}

TEST_P(FaceExchangeFuzz, RandomSpecsExchangeConsistentlyUnderChaos) {
  // Same property while a seeded ChaosEngine delays, holds, and reorders
  // the DG halo messages: the nearest-neighbor isend/irecv/waitall pattern
  // must be schedule-independent.
  const cmtbone::mesh::BoxSpec spec = random_face_spec(GetParam());
  for (OwnerMap kind : kOwnerMaps) {
    cmtbone::chaos::ChaosEngine engine(
        cmtbone::chaos::ChaosPolicy::for_seed(100 + GetParam(), spec.nranks()),
        spec.nranks());
    cmtbone::comm::RunOptions options;
    options.chaos = &engine;
    check_face_exchange(spec, kind, options);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaceExchangeFuzz, ::testing::Range(0, 10));

// --- comm stress: many interleaved messages --------------------------------------

TEST(CommStress, ManyTagsManyPartnersNoCrosstalk) {
  const int p = 6;
  const int kMsgs = 20;
  cmtbone::comm::run(p, [&](Comm& world) {
    const int me = world.rank();
    // Everyone sends kMsgs tagged messages to everyone (incl. self).
    for (int d = 0; d < p; ++d) {
      for (int m = 0; m < kMsgs; ++m) {
        long long v = me * 10000 + d * 100 + m;
        world.send(std::span<const long long>(&v, 1), d, m);
      }
    }
    // Receive in a scrambled but deterministic order.
    for (int m = kMsgs - 1; m >= 0; --m) {
      for (int s = p - 1; s >= 0; --s) {
        long long v = -1;
        world.recv(std::span<long long>(&v, 1), s, m);
        ASSERT_EQ(v, s * 10000 + me * 100 + m);
      }
    }
  });
}

TEST(CommStress, LargeMessageSurvivesRoundTrip) {
  cmtbone::comm::run(2, [](Comm& world) {
    const std::size_t kBig = 1 << 20;  // 8 MiB payload
    if (world.rank() == 0) {
      std::vector<double> data(kBig);
      SplitMix64 rng(5);
      for (double& x : data) x = rng.uniform(-1, 1);
      world.send(std::span<const double>(data), 1, 3);
      std::vector<double> echo(kBig);
      world.recv(std::span<double>(echo), 1, 4);
      SplitMix64 check(5);
      for (std::size_t i = 0; i < kBig; i += 4099) {
        (void)check;  // spot-check against regenerated stream
      }
      ASSERT_EQ(echo, data);
    } else {
      std::vector<double> data(kBig);
      world.recv(std::span<double>(data), 0, 3);
      world.send(std::span<const double>(data), 0, 4);
    }
  });
}

// --- randomized gs under chaos perturbation ----------------------------------

class GsChaosFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GsChaosFuzz, RandomIdSetsMatchOracleUnderChaosForAllMethods) {
  // The GsFuzz property, re-run while a seeded ChaosEngine injects delays,
  // message holds, and a straggler rank: perturbing the schedule must not
  // change any gs_op result for any of the three exchange algorithms.
  SplitMix64 rng(7000 + GetParam());
  const int p = 2 + int(rng.below(6));          // 2..7 ranks
  const int universe = 5 + int(rng.below(30));
  const std::uint64_t chaos_seed = 1 + (rng.next() & 0xffff);

  std::vector<std::vector<long long>> ids(p);
  std::vector<std::vector<double>> vals(p);
  for (int r = 0; r < p; ++r) {
    const int slots = 1 + int(rng.below(20));
    for (int s = 0; s < slots; ++s) {
      ids[r].push_back(static_cast<long long>(rng.below(universe)));
      vals[r].push_back(rng.uniform(-5.0, 5.0));
    }
  }
  std::map<long long, double> oracle;
  for (int r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < ids[r].size(); ++s) {
      auto [it, fresh] = oracle.try_emplace(ids[r][s], vals[r][s]);
      if (!fresh) it->second += vals[r][s];
    }
  }

  for (Method m : {Method::kPairwise, Method::kCrystalRouter,
                   Method::kAllReduce}) {
    cmtbone::chaos::ChaosEngine engine(
        cmtbone::chaos::ChaosPolicy::for_seed(chaos_seed, p), p);
    cmtbone::comm::RunOptions options;
    options.chaos = &engine;
    cmtbone::comm::run(
        p,
        [&](Comm& world) {
          GatherScatter gs(world, ids[world.rank()], m);
          std::vector<double> v = vals[world.rank()];
          gs.exec(std::span<double>(v), ReduceOp::kSum);
          for (std::size_t s = 0; s < v.size(); ++s) {
            ASSERT_NEAR(v[s], oracle.at(ids[world.rank()][s]), 1e-11)
                << "method=" << cmtbone::gs::method_name(m)
                << " rank=" << world.rank() << " slot=" << s
                << " chaos_seed=" << chaos_seed;
          }
        },
        options);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GsChaosFuzz, ::testing::Range(0, 8));

}  // namespace

// Split-phase exchange overlap: interior/boundary classification, the
// begin/finish halves of FaceExchange, and — the contract
// the whole feature rests on — bit-identical results whether the RHS window
// runs inside the exchange (overlap) or after it (blocking), on every
// topology, including chaos-perturbed schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "layouts.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/faces.hpp"
#include "mesh/layout.hpp"
#include "mesh/partition.hpp"
#include "prof/callprof.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::core::EulerCase;
using cmtbone::core::Physics;
using cmtbone::core::TimeIntegrator;
using cmtbone::mesh::BoxSpec;
using cmtbone::mesh::ElementLayout;
using cmtbone::test::kOwnerMaps;
using cmtbone::test::layout_of;
using cmtbone::test::owner_map;
using cmtbone::test::owner_map_name;
using cmtbone::test::OwnerMap;
using cmtbone::util::SplitMix64;

// --- interior/boundary classification ---------------------------------------

BoxSpec spec_for(int n, int e, int px, int py, int pz) {
  BoxSpec spec;
  spec.n = n;
  spec.ex = spec.ey = spec.ez = e;
  spec.px = px;
  spec.py = py;
  spec.pz = pz;
  return spec;
}

// Brute force: rank `rank` of map `owner` must call an element boundary
// exactly when one of its six face neighbors (periodic wrap included,
// physical boundary excluded) belongs to another rank.
void expect_classes_match_scan(const BoxSpec& spec, int rank,
                               const std::vector<int>& owner,
                               const cmtbone::mesh::ElementClasses& cls,
                               const std::string& label) {
  const ElementLayout layout(spec, rank, owner);
  const std::array<int, 3> extent = {spec.ex, spec.ey, spec.ez};
  std::vector<int> want_interior, want_boundary;
  for (int e = 0; e < layout.nel(); ++e) {
    const auto g = layout.global_coords(e);
    bool remote = false;
    for (int axis = 0; axis < 3; ++axis) {
      for (int step : {-1, 1}) {
        std::array<int, 3> ng = g;
        ng[axis] += step;
        if (ng[axis] < 0 || ng[axis] >= extent[axis]) {
          if (!spec.periodic) continue;
          ng[axis] = (ng[axis] + extent[axis]) % extent[axis];
        }
        const long long gid =
            ng[0] + 1LL * spec.ex * (ng[1] + 1LL * spec.ey * ng[2]);
        remote = remote || owner[std::size_t(gid)] != rank;
      }
    }
    (remote ? want_boundary : want_interior).push_back(e);
  }
  EXPECT_EQ(cls.interior, want_interior) << label;
  EXPECT_EQ(cls.boundary, want_boundary) << label;
}

TEST(ElementClasses, PartitionCoveredExactlyOnceInAscendingOrder) {
  for (auto [px, py, pz] : {std::array<int, 3>{1, 1, 1},
                            std::array<int, 3>{2, 1, 1},
                            std::array<int, 3>{2, 2, 1},
                            std::array<int, 3>{3, 1, 1}}) {
    BoxSpec spec = spec_for(4, 6, px, py, pz);
    for (OwnerMap kind : kOwnerMaps) {
      const std::vector<int> owner = owner_map(spec, kind);
      for (int rank = 0; rank < spec.nranks(); ++rank) {
        const ElementLayout layout(spec, rank, owner);
        auto cls = cmtbone::mesh::classify_interior_boundary(layout);
        EXPECT_TRUE(std::is_sorted(cls.interior.begin(), cls.interior.end()));
        EXPECT_TRUE(std::is_sorted(cls.boundary.begin(), cls.boundary.end()));
        std::vector<int> all(cls.interior);
        all.insert(all.end(), cls.boundary.begin(), cls.boundary.end());
        std::sort(all.begin(), all.end());
        ASSERT_EQ(int(all.size()), layout.nel());
        for (int e = 0; e < layout.nel(); ++e) EXPECT_EQ(all[e], e);
        expect_classes_match_scan(spec, rank, owner, cls,
                                  owner_map_name(kind));
      }
    }
  }
}

TEST(ElementClasses, SingleRankPeriodicBoxIsAllInterior) {
  // Every periodic neighbor wraps back onto this rank, so no element's
  // surface term waits on a message.
  const ElementLayout layout = ElementLayout::block(spec_for(4, 3, 1, 1, 1), 0);
  auto cls = cmtbone::mesh::classify_interior_boundary(layout);
  EXPECT_EQ(int(cls.interior.size()), layout.nel());
  EXPECT_TRUE(cls.boundary.empty());
  // On more ranks the strided and random maps leave no rank all interior:
  // the periodic box is connected, so some element of every non-empty rank
  // faces another rank.
  BoxSpec spec = spec_for(4, 4, 2, 1, 1);
  for (OwnerMap kind : {OwnerMap::kStrided, OwnerMap::kRandom}) {
    const std::vector<int> owner = owner_map(spec, kind);
    for (int rank = 0; rank < spec.nranks(); ++rank) {
      auto c = cmtbone::mesh::classify_interior_boundary(
          ElementLayout(spec, rank, owner));
      EXPECT_FALSE(c.boundary.empty()) << owner_map_name(kind);
      expect_classes_match_scan(spec, rank, owner, c, owner_map_name(kind));
    }
  }
}

TEST(ElementClasses, BoundaryIsTheRemoteFacingLayer) {
  // ex=8 over px=2: each rank owns gx-slabs of width 4; only the two
  // x-extreme layers (one facing the partner directly, one via the periodic
  // wrap) touch a remote rank.
  BoxSpec spec = spec_for(4, 8, 2, 1, 1);
  for (int rank = 0; rank < 2; ++rank) {
    cmtbone::mesh::Partition part(spec, rank);
    const ElementLayout layout = ElementLayout::block(spec, rank);
    auto cls = cmtbone::mesh::classify_interior_boundary(layout);
    for (int e : cls.boundary) {
      auto g = layout.global_coords(e);
      EXPECT_TRUE(g[0] == part.x0() || g[0] == part.x1() - 1) << e;
    }
    for (int e : cls.interior) {
      auto g = layout.global_coords(e);
      EXPECT_TRUE(g[0] > part.x0() && g[0] < part.x1() - 1) << e;
    }
    EXPECT_EQ(cls.boundary.size(), std::size_t(2 * 8 * 8));
  }
  // Strided map: x-neighbors always differ in rank, so every element faces
  // a remote rank. Random map: the brute-force scan decides.
  for (OwnerMap kind : {OwnerMap::kStrided, OwnerMap::kRandom}) {
    const std::vector<int> owner = owner_map(spec, kind);
    for (int rank = 0; rank < 2; ++rank) {
      auto cls = cmtbone::mesh::classify_interior_boundary(
          ElementLayout(spec, rank, owner));
      if (kind == OwnerMap::kStrided) {
        EXPECT_TRUE(cls.interior.empty());
      }
      expect_classes_match_scan(spec, rank, owner, cls, owner_map_name(kind));
    }
  }
}

TEST(ElementClasses, NonPeriodicPhysicalBoundaryDoesNotCount) {
  // One rank, non-periodic: faces at the domain edge mirror locally, so
  // everything stays interior.
  BoxSpec one = spec_for(4, 3, 1, 1, 1);
  one.periodic = false;
  auto cls = cmtbone::mesh::classify_interior_boundary(
      ElementLayout::block(one, 0));
  EXPECT_TRUE(cls.boundary.empty());
  // On two ranks the open box's boundary elements are a subset of the
  // periodic box's: closing the wrap only adds remote faces.
  BoxSpec open = spec_for(4, 4, 2, 1, 1);
  open.periodic = false;
  BoxSpec wrapped = open;
  wrapped.periodic = true;
  for (OwnerMap kind : kOwnerMaps) {
    const std::vector<int> owner = owner_map(open, kind);
    for (int rank = 0; rank < 2; ++rank) {
      auto c_open = cmtbone::mesh::classify_interior_boundary(
          ElementLayout(open, rank, owner));
      auto c_wrapped = cmtbone::mesh::classify_interior_boundary(
          ElementLayout(wrapped, rank, owner));
      EXPECT_TRUE(std::includes(c_wrapped.boundary.begin(),
                                c_wrapped.boundary.end(),
                                c_open.boundary.begin(), c_open.boundary.end()))
          << owner_map_name(kind);
      expect_classes_match_scan(open, rank, owner, c_open,
                                owner_map_name(kind));
    }
  }
  // Block layout on two ranks: the open box has no wrap, so only the
  // layer facing the partner is boundary.
  for (int rank = 0; rank < 2; ++rank) {
    auto c = cmtbone::mesh::classify_interior_boundary(
        ElementLayout::block(open, rank));
    EXPECT_EQ(c.boundary.size(), std::size_t(4 * 4));
  }
}

// --- FaceExchange begin/finish ----------------------------------------------

TEST(FaceExchangeSplit, BeginFinishBitIdenticalToBlockingExchange) {
  BoxSpec spec = spec_for(4, 4, 2, 1, 1);
  for (OwnerMap kind : kOwnerMaps) {
    cmtbone::comm::run(2, [&](Comm& world) {
      const ElementLayout layout = layout_of(spec, world.rank(), kind);
      cmtbone::mesh::FaceExchange ex(world, layout);

      const int nfields = 3;
      const std::size_t fsz =
          cmtbone::mesh::face_array_size(spec.n, layout.nel()) * nfields;
      SplitMix64 rng(77 + world.rank());
      std::vector<double> myfaces(fsz);
      for (double& v : myfaces) v = rng.uniform(-1.0, 1.0);

      std::vector<double> blocking(fsz, -1.0), split(fsz, -2.0);
      ex.exchange(myfaces.data(), blocking.data(), nfields);

      EXPECT_FALSE(ex.in_flight());
      ex.begin(myfaces.data(), split.data(), nfields);
      EXPECT_TRUE(ex.in_flight());
      ex.finish();
      EXPECT_FALSE(ex.in_flight());

      for (std::size_t i = 0; i < fsz; ++i) {
        ASSERT_EQ(blocking[i], split[i])
            << owner_map_name(kind) << " face value " << i;
      }
      // finish() without a begin() is a harmless no-op.
      ex.finish();
    });
  }
}

TEST(FaceExchangeSplit, SecondBeginThrowsAndFirstStillCompletes) {
  BoxSpec spec = spec_for(4, 4, 2, 1, 1);
  for (OwnerMap kind : kOwnerMaps) {
    cmtbone::comm::run(2, [&](Comm& world) {
      const ElementLayout layout = layout_of(spec, world.rank(), kind);
      cmtbone::mesh::FaceExchange ex(world, layout);

      const int nfields = 3;
      const std::size_t fsz =
          cmtbone::mesh::face_array_size(spec.n, layout.nel()) * nfields;
      SplitMix64 rng(78 + world.rank());
      std::vector<double> myfaces(fsz);
      for (double& v : myfaces) v = rng.uniform(-1.0, 1.0);

      std::vector<double> blocking(fsz, -1.0), split(fsz, -2.0),
          other(fsz, -3.0);
      ex.exchange(myfaces.data(), blocking.data(), nfields);

      ex.begin(myfaces.data(), split.data(), nfields);
      EXPECT_THROW(ex.begin(myfaces.data(), other.data(), nfields),
                   std::logic_error);
      EXPECT_TRUE(ex.in_flight());
      ex.finish();
      EXPECT_FALSE(ex.in_flight());

      for (std::size_t i = 0; i < fsz; ++i) {
        ASSERT_EQ(blocking[i], split[i])
            << owner_map_name(kind) << " face value " << i;
        ASSERT_EQ(other[i], -3.0)
            << owner_map_name(kind) << " the refused begin wrote face value "
            << i;
      }
    });
  }
}

// --- driver: overlapped RHS is bit-identical to the blocking RHS -------------

using Fields = std::vector<std::vector<double>>;

Config overlap_config(Physics physics) {
  Config cfg;
  cfg.physics = physics;
  cfg.n = 5;
  cfg.ex = cfg.ey = cfg.ez = 4;
  cfg.integrator = TimeIntegrator::kRk4;
  cfg.fixed_dt = 1e-3;
  cfg.use_dssum = true;
  cfg.dealias = true;
  cfg.particles_per_rank = 16;
  cfg.particle_coupling = 0.05;
  return cfg;
}

// Physical boundaries: Sod's shock tube on a geometrically stretched x map.
// Mirrored boundary faces fall into the early surface list. Particles need
// the uniform unit box, so this variant runs grid-only.
Config with_physical_boundaries(Config cfg) {
  cfg.periodic = false;
  cfg.euler_case = EulerCase::kSod;
  cfg.mesh_map[0] = {cmtbone::mesh::AxisMapKind::kGeometric, 1.3, 1.0};
  cfg.particles_per_rank = 0;
  return cfg;
}

std::vector<Fields> run_sim(int nranks, const Config& cfg, int steps,
                            ChaosEngine* chaos = nullptr) {
  std::vector<Fields> out(nranks);
  cmtbone::comm::RunOptions options;
  options.chaos = chaos;
  cmtbone::comm::run(
      nranks,
      [&](Comm& world) {
        Driver driver(world, cfg);
        driver.initialize(driver.default_ic());
        driver.run(steps);
        Fields f;
        for (int i = 0; i < driver.nfields(); ++i) {
          auto s = driver.field(i);
          f.emplace_back(s.begin(), s.end());
        }
        out[world.rank()] = std::move(f);
      },
      options);
  return out;
}

void expect_bitwise_equal(const std::vector<Fields>& a,
                          const std::vector<Fields>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "rank " << r;
    for (std::size_t f = 0; f < a[r].size(); ++f) {
      ASSERT_EQ(a[r][f].size(), b[r][f].size());
      for (std::size_t p = 0; p < a[r][f].size(); ++p) {
        ASSERT_EQ(a[r][f][p], b[r][f][p])
            << "rank " << r << " field " << f << " point " << p;
      }
    }
  }
}

TEST(OverlapDriver, BitIdenticalToBlockingDirectBackend) {
  // 1 rank (all interior), 2 ranks, and a non-power-of-two count, on the
  // periodic box and with physical boundaries.
  for (bool periodic : {true, false}) {
    for (int nranks : {1, 2, 3}) {
      Config cfg = overlap_config(Physics::kEuler);
      if (!periodic) cfg = with_physical_boundaries(cfg);
      auto blocking = run_sim(nranks, cfg, 10);
      cfg.overlap = true;
      auto overlapped = run_sim(nranks, cfg, 10);
      SCOPED_TRACE(::testing::Message()
                   << "ranks=" << nranks << " periodic=" << periodic);
      expect_bitwise_equal(blocking, overlapped);
    }
  }
}

TEST(OverlapDriver, BitIdenticalSingleFieldAdvection) {
  Config cfg = overlap_config(Physics::kAdvection);
  cfg.use_dssum = false;  // pure DG path
  auto blocking = run_sim(2, cfg, 10);
  cfg.overlap = true;
  auto overlapped = run_sim(2, cfg, 10);
  expect_bitwise_equal(blocking, overlapped);
}

TEST(OverlapDriver, ChaosPerturbedOverlapStillBitIdentical) {
  // Chaos injects delays, message holds and a straggler rank — it perturbs
  // the schedule, never the data. The overlapped run under chaos must still
  // reproduce the unperturbed blocking run bit for bit.
  const int nranks = 3;
  Config cfg = overlap_config(Physics::kEuler);
  auto blocking = run_sim(nranks, cfg, 10);

  for (std::uint64_t seed : {3u, 17u}) {
    ChaosPolicy policy;
    policy.seed = seed;
    policy.delay_probability = 0.3;
    policy.max_delay_us = 200;
    policy.hold_probability = 0.3;
    policy.max_hold_ticks = 6;
    policy.rank_slowdown = {3.0, 1.0, 1.0};
    ChaosEngine engine(policy, nranks);

    Config overlap_cfg = cfg;
    overlap_cfg.overlap = true;
    auto overlapped = run_sim(nranks, overlap_cfg, 10, &engine);
    SCOPED_TRACE(seed);
    expect_bitwise_equal(blocking, overlapped);
  }
}

TEST(OverlapDriver, ThreadedOverlapUnderChaosStillBitIdentical) {
  // Stack all three schedule perturbers at once — overlap splitting, chaos
  // delays/holds/stragglers, and the worker pool moving element chunks
  // between threads — and demand the serial blocking answer bit for bit.
  const int nranks = 3;
  Config cfg = overlap_config(Physics::kEuler);
  auto blocking = run_sim(nranks, cfg, 10);

  for (std::uint64_t seed : {5u, 23u}) {
    ChaosPolicy policy;
    policy.seed = seed;
    policy.delay_probability = 0.3;
    policy.max_delay_us = 200;
    policy.hold_probability = 0.3;
    policy.max_hold_ticks = 6;
    policy.rank_slowdown = {3.0, 1.0, 1.0};
    ChaosEngine engine(policy, nranks);

    Config threaded = cfg;
    threaded.overlap = true;
    threaded.threads_per_rank = 4;
    auto perturbed = run_sim(nranks, threaded, 10, &engine);
    SCOPED_TRACE(seed);
    expect_bitwise_equal(blocking, perturbed);
  }
}

TEST(OverlapDriver, OverlapStatsAccumulateOnlyOnOverlapPath) {
  // The overlap accounting is a view of the rank profile: one
  // overlap_window entry per RHS on the overlapped path, none on the
  // blocking path, and the hidden fraction window / (window + finish).
  cmtbone::comm::run(2, [](Comm& world) {
    Config cfg = overlap_config(Physics::kEuler);
    cfg.overlap = true;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    cmtbone::prof::reset_thread_profile();
    driver.run(2);
    const auto& profile = cmtbone::prof::thread_profile();
    // RK4: four RHS evaluations per step, one window each.
    const auto window = profile.region("overlap_window");
    const auto finish = profile.region("exchange_finish");
    EXPECT_EQ(window.calls, 2 * 4);
    EXPECT_EQ(finish.calls, 2 * 4);
    EXPECT_GT(window.inclusive, 0.0);
    const double hidden =
        window.inclusive / (window.inclusive + finish.inclusive);
    EXPECT_GE(hidden, 0.0);
    EXPECT_LE(hidden, 1.0);

    Config off = cfg;
    off.overlap = false;
    Driver blocking_driver(world, off);
    blocking_driver.initialize(blocking_driver.default_ic());
    cmtbone::prof::reset_thread_profile();
    blocking_driver.run(1);
    const auto& blocking = cmtbone::prof::thread_profile();
    EXPECT_EQ(blocking.region("overlap_window").calls, 0);
    EXPECT_EQ(blocking.region("exchange_finish").calls, 4);
  });
}

}  // namespace

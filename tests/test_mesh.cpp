// Mesh substrate: the block decomposition, element layouts, global
// numbering, face maps, face exchange. Every element-index function is run
// on the block layout and on a strided and a random owner map
// (tests/layouts.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "comm/runtime.hpp"
#include "layouts.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/faces.hpp"
#include "mesh/geometry.hpp"
#include "mesh/layout.hpp"
#include "mesh/numbering.hpp"
#include "mesh/partition.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::mesh::BoxSpec;
using cmtbone::mesh::ElementLayout;
using cmtbone::mesh::FaceExchange;
using cmtbone::mesh::Partition;
using cmtbone::test::kOwnerMaps;
using cmtbone::test::layout_of;
using cmtbone::test::owner_map;
using cmtbone::test::owner_map_name;
using cmtbone::test::OwnerMap;

BoxSpec spec_of(int n, int ex, int ey, int ez, int px, int py, int pz,
                bool periodic = true) {
  BoxSpec s;
  s.n = n;
  s.ex = ex;
  s.ey = ey;
  s.ez = ez;
  s.px = px;
  s.py = py;
  s.pz = pz;
  s.periodic = periodic;
  return s;
}

TEST(BoxSpec, ValidationRejectsBadGrids) {
  EXPECT_THROW(spec_of(1, 4, 4, 4, 1, 1, 1).validate(), std::invalid_argument);
  EXPECT_THROW(spec_of(5, 0, 4, 4, 1, 1, 1).validate(), std::invalid_argument);
  EXPECT_THROW(spec_of(5, 2, 4, 4, 4, 1, 1).validate(), std::invalid_argument);
  EXPECT_NO_THROW(spec_of(5, 4, 4, 4, 2, 2, 1).validate());
}

TEST(BoxSpec, DefaultProcGridIsNearCubicFactorization) {
  auto g256 = BoxSpec::default_proc_grid(256);
  EXPECT_EQ(g256[0] * g256[1] * g256[2], 256);
  EXPECT_GE(g256[0], g256[1]);
  EXPECT_GE(g256[1], g256[2]);
  auto g8 = BoxSpec::default_proc_grid(8);
  EXPECT_EQ(g8[0], 2);
  EXPECT_EQ(g8[1], 2);
  EXPECT_EQ(g8[2], 2);
  auto g7 = BoxSpec::default_proc_grid(7);  // prime: 7x1x1
  EXPECT_EQ(g7[0] * g7[1] * g7[2], 7);
}

TEST(Partition, Fig7SetupMatchesPaper) {
  // Fig. 7: 256 processors (8,8,4), elements (40,40,16), local (5,5,4),
  // 100 elements per process, 25600 total.
  BoxSpec spec = spec_of(10, 40, 40, 16, 8, 8, 4);
  EXPECT_EQ(spec.nranks(), 256);
  EXPECT_EQ(spec.total_elements(), 25600);
  for (int r = 0; r < 256; ++r) {
    Partition part(spec, r);
    EXPECT_EQ(part.nelx(), 5);
    EXPECT_EQ(part.nely(), 5);
    EXPECT_EQ(part.nelz(), 4);
    EXPECT_EQ(part.nel(), 100);
  }
}

TEST(Partition, BlocksTileTheBoxExactly) {
  BoxSpec spec = spec_of(5, 7, 5, 3, 3, 2, 2);  // non-divisible extents
  std::set<std::tuple<int, int, int>> covered;
  for (int r = 0; r < spec.nranks(); ++r) {
    Partition part(spec, r);
    EXPECT_GT(part.nel(), 0);
    for (int z = part.z0(); z < part.z1(); ++z) {
      for (int y = part.y0(); y < part.y1(); ++y) {
        for (int x = part.x0(); x < part.x1(); ++x) {
          auto [it, fresh] = covered.insert({x, y, z});
          EXPECT_TRUE(fresh) << "element covered twice";
        }
      }
    }
  }
  EXPECT_EQ(covered.size(), std::size_t(spec.total_elements()));
}

TEST(Partition, OwnerOfAgreesWithBlocks) {
  // ElementLayout::owner_of and owns against two oracles: Partition's block
  // ranges for the block layout, the owner map itself for every map.
  BoxSpec spec = spec_of(5, 7, 5, 3, 3, 2, 2);
  const ElementLayout block = ElementLayout::block(spec, 0);
  for (int r = 0; r < spec.nranks(); ++r) {
    Partition part(spec, r);
    for (int z = part.z0(); z < part.z1(); ++z) {
      for (int y = part.y0(); y < part.y1(); ++y) {
        for (int x = part.x0(); x < part.x1(); ++x) {
          EXPECT_EQ(block.owner_of(x, y, z), r);
        }
      }
    }
  }
  for (OwnerMap kind : kOwnerMaps) {
    const std::vector<int> owner = owner_map(spec, kind);
    for (int r = 0; r < spec.nranks(); ++r) {
      const ElementLayout layout(spec, r, owner);
      for (int z = 0; z < spec.ez; ++z) {
        for (int y = 0; y < spec.ey; ++y) {
          for (int x = 0; x < spec.ex; ++x) {
            const int want = owner[x + spec.ex * (y + spec.ey * z)];
            ASSERT_EQ(layout.owner_of(x, y, z), want) << owner_map_name(kind);
            ASSERT_EQ(layout.owns(x, y, z), want == r) << owner_map_name(kind);
          }
        }
      }
    }
  }
}

TEST(Partition, LocalIndexRoundTrips) {
  // Local index <-> gid <-> coordinates on every map; gids ascend, and a
  // gid another rank owns has no local index.
  BoxSpec spec = spec_of(5, 6, 4, 4, 2, 2, 1);
  for (OwnerMap kind : kOwnerMaps) {
    long long owned = 0;
    for (int r = 0; r < spec.nranks(); ++r) {
      const ElementLayout layout = layout_of(spec, r, kind);
      EXPECT_GT(layout.nel(), 0) << owner_map_name(kind);
      owned += layout.nel();
      for (int e = 0; e < layout.nel(); ++e) {
        const auto g = layout.global_coords(e);
        EXPECT_EQ(layout.local_index(g[0], g[1], g[2]), e);
        EXPECT_EQ(layout.local_of_gid(layout.gid_of(e)), e);
        EXPECT_EQ(layout.coords_of_gid(layout.gid_of(e)), g);
        EXPECT_EQ(layout.gid(g[0], g[1], g[2]), layout.gid_of(e));
        if (e > 0) {
          EXPECT_LT(layout.gid_of(e - 1), layout.gid_of(e));
        }
      }
      for (long long gid = 0; gid < spec.total_elements(); ++gid) {
        if (layout.owner_of_gid(gid) != r) {
          EXPECT_EQ(layout.local_of_gid(gid), -1) << owner_map_name(kind);
        }
      }
    }
    EXPECT_EQ(owned, spec.total_elements()) << owner_map_name(kind);
  }
}

TEST(ElementLayout, RejectsInvalidSpec) {
  // The layout validates its spec before building anything: n = 1 would
  // reach the periodic wrap of the numbering as an integer % 0.
  auto expect_rejected = [](const BoxSpec& spec) {
    const std::vector<int> owner(std::size_t(spec.total_elements()), 0);
    EXPECT_THROW(ElementLayout(spec, 0, owner), std::invalid_argument)
        << spec.n << " " << spec.ex << " " << spec.px;
    EXPECT_THROW(ElementLayout::block(spec, 0), std::invalid_argument)
        << spec.n << " " << spec.ex << " " << spec.px;
  };
  expect_rejected(spec_of(1, 4, 4, 4, 1, 1, 1));  // n = 1
  expect_rejected(spec_of(5, 2, 4, 4, 4, 1, 1));  // ex < px
  expect_rejected(spec_of(5, 4, 4, 4, 0, 1, 1));  // px = 0
  EXPECT_NO_THROW(ElementLayout(spec_of(5, 4, 4, 4, 2, 2, 1), 3,
                                std::vector<int>(64, 3)));
}

TEST(Partition, NeighborRanksPeriodicWrap) {
  BoxSpec spec = spec_of(5, 4, 4, 4, 2, 2, 1);
  Partition p0(spec, 0);  // coords (0,0,0)
  EXPECT_EQ(p0.neighbor_rank(1, 0, 0), 1);
  EXPECT_EQ(p0.neighbor_rank(-1, 0, 0), 1);  // wraps
  EXPECT_EQ(p0.neighbor_rank(0, 1, 0), 2);
  EXPECT_EQ(p0.neighbor_rank(0, 0, 1), 0);   // pz=1 wraps to self
  BoxSpec open = spec_of(5, 4, 4, 4, 2, 2, 1, /*periodic=*/false);
  Partition q0(open, 0);
  EXPECT_EQ(q0.neighbor_rank(-1, 0, 0), -1);  // physical boundary
}

// --- global numbering ---------------------------------------------------------

// Every rank's numbering of its elements under `kind`, keyed by gid:
// by_gid[g] holds the `per_elem` ids element g received from its owner.
std::vector<std::vector<long long>> ids_by_gid(
    const BoxSpec& spec, OwnerMap kind,
    std::vector<long long> (*number)(const ElementLayout&),
    std::size_t per_elem) {
  std::vector<std::vector<long long>> by_gid(
      std::size_t(spec.total_elements()));
  for (int r = 0; r < spec.nranks(); ++r) {
    const ElementLayout layout = layout_of(spec, r, kind);
    const std::vector<long long> ids = number(layout);
    EXPECT_EQ(ids.size(), per_elem * std::size_t(layout.nel()));
    for (int e = 0; e < layout.nel(); ++e) {
      by_gid[std::size_t(layout.gid_of(e))].assign(
          ids.begin() + std::ptrdiff_t(e * per_elem),
          ids.begin() + std::ptrdiff_t((e + 1) * per_elem));
    }
  }
  return by_gid;
}

std::vector<std::vector<long long>> gll_ids_by_gid(const BoxSpec& spec,
                                                   OwnerMap kind) {
  return ids_by_gid(spec, kind, cmtbone::mesh::global_gll_ids,
                    std::size_t(spec.n) * spec.n * spec.n);
}

TEST(Numbering, SharedFacePointsGetEqualIds) {
  // The x-interface points of every pair of x-adjacent elements carry
  // identical ids, whichever ranks own the two elements.
  BoxSpec spec = spec_of(4, 4, 2, 1, 2, 1, 1, /*periodic=*/false);
  const int n = spec.n;
  for (OwnerMap kind : kOwnerMaps) {
    const auto ids = gll_ids_by_gid(spec, kind);
    auto at = [&](long long g, int i, int j, int k) {
      return ids[std::size_t(g)][i + n * (j + std::size_t(n) * k)];
    };
    for (long long g = 0; g < spec.total_elements(); ++g) {
      if ((g + 1) % spec.ex == 0) continue;  // no +x neighbor in the box
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(at(g, n - 1, j, k), at(g + 1, 0, j, k))
              << owner_map_name(kind);
          ASSERT_NE(at(g, 0, j, k), at(g + 1, 0, j, k)) << owner_map_name(kind);
        }
      }
    }
  }
}

TEST(Numbering, PeriodicWrapIdentifiesOppositeBoundaries) {
  BoxSpec spec = spec_of(3, 4, 2, 1, 2, 1, 1, /*periodic=*/true);
  const int n = spec.n;
  for (OwnerMap kind : kOwnerMaps) {
    const auto ids = gll_ids_by_gid(spec, kind);
    auto at = [&](long long g, int i, int j, int k) {
      return ids[std::size_t(g)][i + n * (j + std::size_t(n) * k)];
    };
    // +x face of the last element of each x-row wraps onto the -x face of
    // the row's first.
    for (long long first = 0; first < spec.total_elements(); first += spec.ex) {
      const long long last = first + spec.ex - 1;
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(at(last, n - 1, j, k), at(first, 0, j, k))
              << owner_map_name(kind);
        }
      }
    }
  }
}

TEST(Numbering, MultiplicityCountsMatchStencil) {
  // Interior points appear once, face points twice, edge points four
  // times, corner points eight times (periodic box), counted over the ids
  // of every rank.
  BoxSpec spec = spec_of(3, 4, 2, 2, 2, 1, 1);
  for (OwnerMap kind : kOwnerMaps) {
    std::map<long long, int> mult;
    for (const auto& elem : gll_ids_by_gid(spec, kind)) {
      for (long long id : elem) mult[id]++;
    }
    std::map<int, int> histogram;
    for (auto& [id, m] : mult) histogram[m]++;
    // Multiplicities on a periodic conforming mesh are 1, 2, 4, or 8.
    for (auto& [m, count] : histogram) {
      EXPECT_TRUE(m == 1 || m == 2 || m == 4 || m == 8)
          << "multiplicity " << m << " " << owner_map_name(kind);
    }
    EXPECT_EQ(histogram.size(), 4u) << owner_map_name(kind);
    EXPECT_EQ(cmtbone::mesh::total_gll_points(spec),
              static_cast<long long>(mult.size()));
  }
}

TEST(Numbering, ParallelIdsAgreeWithSerialOracle) {
  // The ids a rank derives for its elements must equal those the serial
  // (single-rank) layout derives for the same global elements.
  BoxSpec par = spec_of(4, 4, 2, 2, 2, 2, 1);
  BoxSpec ser = spec_of(4, 4, 2, 2, 1, 1, 1);
  const ElementLayout serial = ElementLayout::block(ser, 0);
  const auto serial_ids = cmtbone::mesh::global_gll_ids(serial);
  const std::size_t elem = std::size_t(par.n) * par.n * par.n;
  for (OwnerMap kind : kOwnerMaps) {
    for (int r = 0; r < par.nranks(); ++r) {
      const ElementLayout layout = layout_of(par, r, kind);
      const auto ids = cmtbone::mesh::global_gll_ids(layout);
      for (int e = 0; e < layout.nel(); ++e) {
        auto g = layout.global_coords(e);
        int se = serial.local_index(g[0], g[1], g[2]);
        for (std::size_t p = 0; p < elem; ++p) {
          ASSERT_EQ(ids[e * elem + p], serial_ids[se * elem + p])
              << owner_map_name(kind);
        }
      }
    }
  }
}

// --- face maps ---------------------------------------------------------------

TEST(Faces, Full2FaceExtractsTheRightPoints) {
  const int n = 3, nel = 2;
  std::vector<double> u(n * n * n * nel);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = double(i);
  std::vector<double> faces(cmtbone::mesh::face_array_size(n, nel));
  cmtbone::mesh::full2face(u.data(), faces.data(), n, nel);
  for (int e = 0; e < nel; ++e) {
    for (int f = 0; f < 6; ++f) {
      for (int b = 0; b < n; ++b) {
        for (int a = 0; a < n; ++a) {
          std::size_t fidx =
              cmtbone::mesh::face_offset(f, e, n) + a + std::size_t(n) * b;
          std::size_t vidx = std::size_t(e) * n * n * n +
                             cmtbone::mesh::face_point_volume_index(f, a, b, n);
          EXPECT_DOUBLE_EQ(faces[fidx], u[vidx]);
        }
      }
    }
  }
}

TEST(Faces, OppositeFaceConvention) {
  using cmtbone::mesh::opposite_face;
  EXPECT_EQ(opposite_face(0), 1);
  EXPECT_EQ(opposite_face(1), 0);
  EXPECT_EQ(opposite_face(4), 5);
}

// --- face exchange -------------------------------------------------------------

// Fill a field with a function of the *global* point identity so any rank
// can verify the neighbor values it receives without communication.
double global_marker(int gx, int gy, int gz, int face, int a, int b) {
  return gx * 1.0e6 + gy * 1.0e4 + gz * 1.0e2 + face * 10.0 + a + 0.01 * b;
}

// Geometric neighbor of element g across face f: false on a physical
// (non-periodic) boundary.
bool face_neighbor(const BoxSpec& spec, std::array<int, 3> g, int f,
                   std::array<int, 3>* ng) {
  const std::array<int, 3> extent = {spec.ex, spec.ey, spec.ez};
  const int axis = cmtbone::mesh::face_axis(f);
  g[axis] += cmtbone::mesh::face_side(f) == 0 ? -1 : 1;
  if (g[axis] < 0 || g[axis] >= extent[axis]) {
    if (!spec.periodic) return false;
    g[axis] = (g[axis] + extent[axis]) % extent[axis];
  }
  *ng = g;
  return true;
}

void face_exchange_check(const BoxSpec& spec, OwnerMap kind) {
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    const ElementLayout layout = layout_of(spec, world.rank(), kind);
    FaceExchange ex(world, layout);
    const int n = spec.n;
    const int nel = layout.nel();
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, nel);

    // Hand-build a face array whose entries encode (element, face, a, b).
    std::vector<double> myfaces(fsz), nbrfaces(fsz, -1);
    for (int e = 0; e < nel; ++e) {
      auto g = layout.global_coords(e);
      for (int f = 0; f < 6; ++f) {
        for (int b = 0; b < n; ++b) {
          for (int a = 0; a < n; ++a) {
            myfaces[cmtbone::mesh::face_offset(f, e, n) + a + std::size_t(n) * b] =
                global_marker(g[0], g[1], g[2], f, a, b);
          }
        }
      }
    }
    ex.exchange(myfaces.data(), nbrfaces.data(), 1);

    // Every (element, face) must now hold the neighbor element's opposite
    // face marker with identical (a, b).
    for (int e = 0; e < nel; ++e) {
      auto g = layout.global_coords(e);
      for (int f = 0; f < 6; ++f) {
        std::array<int, 3> ng;
        const bool physical = !face_neighbor(spec, g, f, &ng);
        // The layout's own rule, which the planner uses, agrees with this
        // reference: the neighbor's gid, or -1 on a physical boundary.
        ASSERT_EQ(layout.face_neighbor(layout.gid_of(e), f),
                  physical ? -1 : layout.gid(ng[0], ng[1], ng[2]))
            << owner_map_name(kind) << " e=" << e << " f=" << f;
        for (int b = 0; b < n; ++b) {
          for (int a = 0; a < n; ++a) {
            double got = nbrfaces[cmtbone::mesh::face_offset(f, e, n) + a +
                                  std::size_t(n) * b];
            double want =
                physical
                    ? global_marker(g[0], g[1], g[2], f, a, b)
                    : global_marker(ng[0], ng[1], ng[2],
                                    cmtbone::mesh::opposite_face(f), a, b);
            ASSERT_DOUBLE_EQ(got, want)
                << owner_map_name(kind) << " e=" << e << " f=" << f
                << " a=" << a << " b=" << b;
          }
        }
      }
    }
  });
}

void face_exchange_check(const BoxSpec& spec) {
  for (OwnerMap kind : kOwnerMaps) face_exchange_check(spec, kind);
}

TEST(FaceExchange, SingleRankPeriodicWrap) {
  face_exchange_check(spec_of(3, 2, 2, 2, 1, 1, 1));
}

TEST(FaceExchange, TwoRanksOneDirection) {
  face_exchange_check(spec_of(3, 4, 2, 2, 2, 1, 1));
}

TEST(FaceExchange, EightRanksAllDirections) {
  face_exchange_check(spec_of(3, 4, 4, 4, 2, 2, 2));
}

TEST(FaceExchange, NonPeriodicBoundariesMirror) {
  face_exchange_check(spec_of(3, 4, 4, 2, 2, 2, 1, /*periodic=*/false));
}

TEST(FaceExchange, SingleElementPerRankPeriodic) {
  // nelx == 1 with px == 2: both x faces of each block element are remote,
  // and both exchanges target the same partner (distinct tags must keep
  // them apart).
  face_exchange_check(spec_of(3, 2, 2, 2, 2, 1, 1));
}

TEST(FaceExchange, OddProcessorCounts) {
  face_exchange_check(spec_of(3, 6, 3, 2, 3, 1, 1));
}

TEST(FaceExchange, MultiFieldExchangeKeepsFieldsSeparate) {
  BoxSpec spec = spec_of(3, 4, 2, 2, 2, 1, 1);
  for (OwnerMap kind : kOwnerMaps) {
    cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
      const ElementLayout layout = layout_of(spec, world.rank(), kind);
      FaceExchange ex(world, layout);
      const int n = spec.n;
      const std::size_t fsz = cmtbone::mesh::face_array_size(n, layout.nel());
      const int nf = 3;
      std::vector<double> myfaces(nf * fsz), nbrfaces(nf * fsz, -1);
      for (int f = 0; f < nf; ++f) {
        for (std::size_t i = 0; i < fsz; ++i) {
          myfaces[f * fsz + i] = world.rank() * 1000.0 + f * 100.0;
        }
      }
      ex.exchange(myfaces.data(), nbrfaces.data(), nf);
      // Whatever the source rank was, the field id digit must be preserved.
      for (int f = 0; f < nf; ++f) {
        for (std::size_t i = 0; i < fsz; ++i) {
          double v = nbrfaces[f * fsz + i];
          int field_digit = int(v) % 1000 / 100;
          EXPECT_EQ(field_digit, f) << owner_map_name(kind);
        }
      }
    });
  }
}

TEST(FaceExchange, ByteAccountingMatchesPlanes) {
  BoxSpec spec = spec_of(4, 4, 4, 4, 2, 2, 1);
  const long long plane_bytes = 16LL * 8;  // n^2 points x 8 bytes
  cmtbone::comm::run(4, [&](Comm& world) {
    FaceExchange ex(world, ElementLayout::block(spec, world.rank()));
    // Each rank owns a 2x2x4 block: remote planes are +x/-x (2x4 elements)
    // and +y/-y (2x4); z wraps locally (pz=1). 4 planes x 8 faces x n^2
    // points x 8 bytes.
    EXPECT_EQ(ex.send_bytes_per_exchange(1), 4LL * 8 * plane_bytes);
    EXPECT_EQ(ex.remote_partner_count(), 2);
  });
  // Any map: one plane per (element, face) whose neighbor another rank
  // owns, to as many partners as there are such owners.
  for (OwnerMap kind : kOwnerMaps) {
    cmtbone::comm::run(4, [&](Comm& world) {
      const ElementLayout layout = layout_of(spec, world.rank(), kind);
      FaceExchange ex(world, layout);
      long long planes = 0;
      std::set<int> partners;
      for (int e = 0; e < layout.nel(); ++e) {
        for (int f = 0; f < 6; ++f) {
          std::array<int, 3> ng;
          if (!face_neighbor(spec, layout.global_coords(e), f, &ng)) continue;
          const int owner = layout.owner_of(ng[0], ng[1], ng[2]);
          if (owner == world.rank()) continue;
          ++planes;
          partners.insert(owner);
        }
      }
      EXPECT_EQ(ex.send_bytes_per_exchange(2), 2 * planes * plane_bytes)
          << owner_map_name(kind);
      EXPECT_EQ(ex.remote_partner_count(), int(partners.size()))
          << owner_map_name(kind);
    });
  }
}

// ---------------------------------------------------------------------------
// Axis coordinate maps (mesh/geometry.hpp)
// ---------------------------------------------------------------------------

TEST(AxisMap, UniformWidthsAreTheExactHistoricalConstant) {
  // Bit-exact length / count, not a breakpoint difference: core::Driver's
  // per-element extents on a uniform mesh are these widths, so they must be
  // the very doubles the seed geometry used.
  using cmtbone::mesh::AxisMap;
  using cmtbone::mesh::AxisMapKind;
  for (double length : {1.0, 2.5, 0.3}) {
    for (int count : {1, 6, 8}) {
      const auto w = cmtbone::mesh::axis_widths(
          AxisMap{AxisMapKind::kUniform, 1.0, length}, count);
      ASSERT_EQ(w.size(), std::size_t(count));
      for (double wi : w) {
        EXPECT_EQ(wi, length / count) << length << "/" << count;
      }
      EXPECT_EQ(*std::min_element(w.begin(), w.end()), length / count);
    }
  }
}

TEST(AxisMap, BreakpointsSpanTheAxisAndIncrease) {
  using cmtbone::mesh::AxisMap;
  using cmtbone::mesh::AxisMapKind;
  for (AxisMap map : {AxisMap{AxisMapKind::kUniform, 1.0, 2.5},
                      AxisMap{AxisMapKind::kGeometric, 1.4, 2.5},
                      AxisMap{AxisMapKind::kTanh, 2.0, 2.5}}) {
    const auto x = cmtbone::mesh::axis_breakpoints(map, 6);
    ASSERT_EQ(x.size(), 7u);
    EXPECT_EQ(x.front(), 0.0);
    EXPECT_EQ(x.back(), 2.5);
    for (std::size_t i = 0; i + 1 < x.size(); ++i) EXPECT_LT(x[i], x[i + 1]);
  }
}

TEST(AxisMap, GeometricWidthsFollowTheRatio) {
  cmtbone::mesh::AxisMap map{cmtbone::mesh::AxisMapKind::kGeometric, 1.5, 1.0};
  const auto w = cmtbone::mesh::axis_widths(map, 5);
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    EXPECT_NEAR(w[i + 1] / w[i], 1.5, 1e-12);
  }
  double sum = 0.0;
  for (double wi : w) sum += wi;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AxisMap, TanhClusteringIsSymmetricAndClustersTheEnds) {
  cmtbone::mesh::AxisMap map{cmtbone::mesh::AxisMapKind::kTanh, 2.0, 1.0};
  const auto w = cmtbone::mesh::axis_widths(map, 8);
  for (std::size_t i = 0; i < w.size() / 2; ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);  // symmetric
  }
  EXPECT_LT(w.front(), w[w.size() / 2]);  // ends thinner than the middle
}

TEST(AxisMap, InvalidParametersThrow) {
  using cmtbone::mesh::AxisMap;
  using cmtbone::mesh::AxisMapKind;
  EXPECT_THROW(cmtbone::mesh::axis_breakpoints(AxisMap{}, 0),
               std::invalid_argument);
  EXPECT_THROW(cmtbone::mesh::axis_breakpoints(
                   AxisMap{AxisMapKind::kUniform, 1.0, -1.0}, 4),
               std::invalid_argument);
  EXPECT_THROW(cmtbone::mesh::axis_breakpoints(
                   AxisMap{AxisMapKind::kGeometric, -0.5, 1.0}, 4),
               std::invalid_argument);
  EXPECT_THROW(cmtbone::mesh::axis_breakpoints(
                   AxisMap{AxisMapKind::kTanh, 0.0, 1.0}, 4),
               std::invalid_argument);
  // The uniform widths take the same length check as the breakpoints.
  for (double length : {0.0, -1.0}) {
    EXPECT_THROW(cmtbone::mesh::axis_widths(
                     AxisMap{AxisMapKind::kUniform, 1.0, length}, 4),
                 std::invalid_argument)
        << length;
  }
}

}  // namespace

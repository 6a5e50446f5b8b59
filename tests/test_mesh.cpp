// Mesh substrate: partitioning, global numbering, face maps, face exchange.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "comm/runtime.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/geometry.hpp"
#include "mesh/face_numbering.hpp"
#include "mesh/faces.hpp"
#include "mesh/numbering.hpp"
#include "mesh/partition.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::mesh::BoxSpec;
using cmtbone::mesh::FaceExchange;
using cmtbone::mesh::Partition;

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
  BoxSpec spec = spec_of(5, 7, 5, 3, 3, 2, 2);
  Partition any(spec, 0);
  for (int r = 0; r < spec.nranks(); ++r) {
    Partition part(spec, r);
    for (int z = part.z0(); z < part.z1(); ++z) {
      for (int y = part.y0(); y < part.y1(); ++y) {
        for (int x = part.x0(); x < part.x1(); ++x) {
          EXPECT_EQ(any.owner_of(x, y, z), r);
        }
      }
    }
  }
}

TEST(Partition, LocalIndexRoundTrips) {
  BoxSpec spec = spec_of(5, 6, 4, 4, 2, 2, 1);
  for (int r = 0; r < spec.nranks(); ++r) {
    Partition part(spec, r);
    for (int e = 0; e < part.nel(); ++e) {
      auto g = part.global_coords(e);
      EXPECT_EQ(part.local_index(g[0], g[1], g[2]), e);
    }
  }
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

TEST(Numbering, SharedFacePointsGetEqualIds) {
  // Single rank, 2x1x1 elements: the x-interface points of element 0 and 1
  // must carry identical ids.
  BoxSpec spec = spec_of(4, 2, 1, 1, 1, 1, 1, /*periodic=*/false);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::global_gll_ids(part);
  const int n = spec.n;
  auto at = [&](int e, int i, int j, int k) {
    return ids[i + n * (j + n * (k + std::size_t(n) * e))];
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(at(0, n - 1, j, k), at(1, 0, j, k));
      EXPECT_NE(at(0, 0, j, k), at(1, 0, j, k));
    }
  }
}

TEST(Numbering, PeriodicWrapIdentifiesOppositeBoundaries) {
  BoxSpec spec = spec_of(3, 2, 1, 1, 1, 1, 1, /*periodic=*/true);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::global_gll_ids(part);
  const int n = spec.n;
  auto at = [&](int e, int i, int j, int k) {
    return ids[i + n * (j + n * (k + std::size_t(n) * e))];
  };
  // +x face of the last element wraps onto the -x face of the first.
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(at(1, n - 1, j, k), at(0, 0, j, k));
    }
  }
}

TEST(Numbering, MultiplicityCountsMatchStencil) {
  // Interior points appear once, face points twice, edge points four
  // times, corner points eight times (periodic 2x2x2 box).
  BoxSpec spec = spec_of(3, 2, 2, 2, 1, 1, 1);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::global_gll_ids(part);
  std::map<long long, int> mult;
  for (long long id : ids) mult[id]++;
  std::map<int, int> histogram;
  for (auto& [id, m] : mult) histogram[m]++;
  // Multiplicities on a periodic conforming mesh are 1, 2, 4, or 8.
  for (auto& [m, count] : histogram) {
    EXPECT_TRUE(m == 1 || m == 2 || m == 4 || m == 8) << "multiplicity " << m;
  }
  EXPECT_EQ(cmtbone::mesh::total_gll_points(spec),
            static_cast<long long>(mult.size()));
}

TEST(Numbering, ParallelIdsAgreeWithSerialOracle) {
  // The ids a rank derives for its elements must equal those the serial
  // (single-rank) partition derives for the same global elements.
  BoxSpec par = spec_of(4, 4, 2, 2, 2, 2, 1);
  BoxSpec ser = spec_of(4, 4, 2, 2, 1, 1, 1);
  Partition serial(ser, 0);
  auto serial_ids = cmtbone::mesh::global_gll_ids(serial);
  const int n = par.n;
  const std::size_t elem = std::size_t(n) * n * n;
  for (int r = 0; r < par.nranks(); ++r) {
    Partition part(par, r);
    auto ids = cmtbone::mesh::global_gll_ids(part);
    for (int e = 0; e < part.nel(); ++e) {
      auto g = part.global_coords(e);
      int se = serial.local_index(g[0], g[1], g[2]);
      for (std::size_t p = 0; p < elem; ++p) {
        ASSERT_EQ(ids[e * elem + p], serial_ids[se * elem + p]);
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

TEST(Faces, Face2FullAddIsAdjointOfExtraction) {
  const int n = 4, nel = 1;
  std::vector<double> u(n * n * n, 0.0);
  std::vector<double> faces(cmtbone::mesh::face_array_size(n, nel), 1.0);
  cmtbone::mesh::face2full_add(faces.data(), u.data(), n, nel);
  // Each volume point receives one unit per face it belongs to: corners 3,
  // edges 2, face interiors 1, interior 0.
  auto on_boundary = [n](int c) { return c == 0 || c == n - 1; };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        int faces_touching = on_boundary(i) + on_boundary(j) + on_boundary(k);
        EXPECT_DOUBLE_EQ(u[i + n * (j + std::size_t(n) * k)],
                         double(faces_touching));
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

// --- face-point numbering (gs-based exchange ids) ------------------------------

TEST(FaceNumbering, EveryInteriorFacePointHasExactlyTwoCopies) {
  BoxSpec spec = spec_of(3, 2, 2, 2, 1, 1, 1, /*periodic=*/true);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::face_point_gids(part);
  std::map<long long, int> mult;
  for (long long id : ids) mult[id]++;
  for (const auto& [id, m] : mult) {
    EXPECT_EQ(m, 2) << "face-point id " << id;
  }
  // 3 axes x 2 planes... total slots = nel*6*n^2, each id twice.
  EXPECT_EQ(mult.size() * 2, ids.size());
}

TEST(FaceNumbering, NonPeriodicBoundaryPointsAreUnique) {
  BoxSpec spec = spec_of(3, 2, 2, 1, 1, 1, 1, /*periodic=*/false);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::face_point_gids(part);
  std::map<long long, int> mult;
  for (long long id : ids) mult[id]++;
  int singles = 0, doubles = 0;
  for (const auto& [id, m] : mult) {
    ASSERT_TRUE(m == 1 || m == 2) << m;
    (m == 1 ? singles : doubles)++;
  }
  // 2x2x1 box: interior mesh faces: x: 1*2*1, y: 2*1*1, z: none interior
  // (ez=1, both z faces physical). Each interior face has n^2 paired points.
  EXPECT_EQ(doubles, (1 * 2 + 2 * 1) * 9);
  EXPECT_GT(singles, 0);
}

TEST(FaceNumbering, PairedSlotsAreGeometricallyAdjacent) {
  // The two slots sharing an id must be (element, face f) and its neighbor
  // (element', opposite(f)) at the same (a, b).
  BoxSpec spec = spec_of(3, 2, 2, 2, 1, 1, 1, /*periodic=*/true);
  Partition part(spec, 0);
  auto ids = cmtbone::mesh::face_point_gids(part);
  const int n = spec.n;
  auto slot = [&](int e, int f, int a, int b) {
    return cmtbone::mesh::face_offset(f, e, n) + a + std::size_t(n) * b;
  };
  for (int e = 0; e < part.nel(); ++e) {
    auto g = part.global_coords(e);
    for (int f = 0; f < 6; ++f) {
      int axis = cmtbone::mesh::face_axis(f);
      int dir = cmtbone::mesh::face_side(f) == 0 ? -1 : 1;
      std::array<int, 3> ng = {g[0], g[1], g[2]};
      ng[axis] = (ng[axis] + dir + 2) % 2;  // extent 2 per direction
      int ne = part.local_index(ng[0], ng[1], ng[2]);
      for (int b = 0; b < n; ++b) {
        for (int a = 0; a < n; ++a) {
          ASSERT_EQ(ids[slot(e, f, a, b)],
                    ids[slot(ne, cmtbone::mesh::opposite_face(f), a, b)]);
        }
      }
    }
  }
}

TEST(FaceNumbering, ParallelIdsAgreeWithSerialOracle) {
  BoxSpec par = spec_of(3, 4, 2, 2, 2, 2, 1);
  BoxSpec ser = spec_of(3, 4, 2, 2, 1, 1, 1);
  Partition serial(ser, 0);
  auto serial_ids = cmtbone::mesh::face_point_gids(serial);
  const std::size_t per_elem = cmtbone::mesh::face_array_size(par.n, 1);
  for (int r = 0; r < par.nranks(); ++r) {
    Partition part(par, r);
    auto ids = cmtbone::mesh::face_point_gids(part);
    for (int e = 0; e < part.nel(); ++e) {
      auto g = part.global_coords(e);
      int se = serial.local_index(g[0], g[1], g[2]);
      for (std::size_t p = 0; p < per_elem; ++p) {
        ASSERT_EQ(ids[e * per_elem + p], serial_ids[se * per_elem + p]);
      }
    }
  }
}

// --- face exchange -------------------------------------------------------------

// Fill a field with a function of the *global* point identity so any rank
// can verify the neighbor values it receives without communication.
double global_marker(int gx, int gy, int gz, int face, int a, int b) {
  return gx * 1.0e6 + gy * 1.0e4 + gz * 1.0e2 + face * 10.0 + a + 0.01 * b;
}

void face_exchange_check(const BoxSpec& spec) {
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    Partition part(spec, world.rank());
    FaceExchange ex(world, part);
    const int n = spec.n;
    const int nel = part.nel();
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, nel);

    // Hand-build a face array whose entries encode (element, face, a, b).
    std::vector<double> myfaces(fsz), nbrfaces(fsz, -1);
    for (int e = 0; e < nel; ++e) {
      auto g = part.global_coords(e);
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
    const std::array<int, 3> extent = {spec.ex, spec.ey, spec.ez};
    for (int e = 0; e < nel; ++e) {
      auto g = part.global_coords(e);
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
            double got = nbrfaces[cmtbone::mesh::face_offset(f, e, n) + a +
                                  std::size_t(n) * b];
            double want =
                physical
                    ? global_marker(g[0], g[1], g[2], f, a, b)
                    : global_marker(ng[0], ng[1], ng[2],
                                    cmtbone::mesh::opposite_face(f), a, b);
            ASSERT_DOUBLE_EQ(got, want)
                << "e=" << e << " f=" << f << " a=" << a << " b=" << b;
          }
        }
      }
    }
  });
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
  // nelx == 1 with px == 2: both x faces of each element are remote, and
  // both exchanges target the same partner (distinct tags must keep them
  // apart).
  face_exchange_check(spec_of(3, 2, 2, 2, 2, 1, 1));
}

TEST(FaceExchange, OddProcessorCounts) {
  face_exchange_check(spec_of(3, 6, 3, 2, 3, 1, 1));
}

TEST(FaceExchange, MultiFieldExchangeKeepsFieldsSeparate) {
  BoxSpec spec = spec_of(3, 4, 2, 2, 2, 1, 1);
  cmtbone::comm::run(spec.nranks(), [&](Comm& world) {
    Partition part(spec, world.rank());
    FaceExchange ex(world, part);
    const int n = spec.n;
    const int nel = part.nel();
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, nel);
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
        EXPECT_EQ(field_digit, f);
      }
    }
  });
}

TEST(FaceExchange, ByteAccountingMatchesPlanes) {
  BoxSpec spec = spec_of(4, 4, 4, 4, 2, 2, 1);
  cmtbone::comm::run(4, [&](Comm& world) {
    Partition part(spec, world.rank());
    FaceExchange ex(world, part);
    // Each rank owns a 2x2x4 block: remote planes are +x/-x (2x4 elements)
    // and +y/-y (2x4); z wraps locally (pz=1). 4 planes x 8 faces x n^2
    // points x 8 bytes.
    long long expected = 4LL * 8 * 16 * 8;
    EXPECT_EQ(ex.send_bytes_per_exchange(1), expected);
    EXPECT_EQ(ex.remote_partner_count(), 2);
  });
}

// ---------------------------------------------------------------------------
// Axis coordinate maps (mesh/geometry.hpp)
// ---------------------------------------------------------------------------

TEST(AxisMap, UniformWidthsAreTheExactHistoricalConstant) {
  cmtbone::mesh::AxisMap map;  // uniform, length 1
  const auto w = cmtbone::mesh::axis_widths(map, 8);
  ASSERT_EQ(w.size(), 8u);
  for (double wi : w) {
    // Bit-exact 1.0/8, not a breakpoint difference — the uniform fast path
    // must reproduce the seed geometry exactly.
    EXPECT_EQ(wi, 1.0 / 8);
  }
  EXPECT_EQ(cmtbone::mesh::min_axis_width(map, 8), 1.0 / 8);
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

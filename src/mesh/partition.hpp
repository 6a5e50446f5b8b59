#pragma once
// Structured box mesh of hexahedral elements and its Cartesian block
// decomposition onto a processor grid.
//
// Reproduces the domain decomposition of the paper's Fig. 3 and the Fig. 7
// setup: a global element grid (Ex,Ey,Ez) is split across a processor grid
// (Px,Py,Pz); each rank owns a contiguous block of elements ("local element
// distribution"). Non-divisible extents are balanced: the first
// (extent mod procs) ranks along a direction get one extra layer.
//
// Partition is only that block arithmetic: processor coordinates, block
// ranges and neighbor ranks. It does not index elements. Every element
// index (local order, global coordinates, owners, classification) lives in
// mesh::ElementLayout (mesh/layout.hpp), whose block() layout is built from
// these ranges.

#include <array>
#include <stdexcept>
#include <string>

namespace cmtbone::mesh {

/// Global problem geometry (identical on every rank).
struct BoxSpec {
  int n = 0;                 // GLL points per direction per element
  int ex = 0, ey = 0, ez = 0;  // global element grid
  int px = 0, py = 0, pz = 0;  // processor grid
  bool periodic = true;        // periodic box (the mini-app default)

  int nranks() const { return px * py * pz; }
  long long total_elements() const { return 1LL * ex * ey * ez; }

  void validate() const;

  /// Pick a near-cubic processor grid for `nranks` that divides nothing in
  /// particular — factorization into (px >= py >= pz) closest to a cube.
  static std::array<int, 3> default_proc_grid(int nranks);
};

/// The validated box of a job on `nranks` ranks: `n` GLL points per
/// direction, the global element grid, periodicity and the processor grid
/// `procs` (procs[0] <= 0 picks default_proc_grid(nranks)). Throws
/// std::invalid_argument when the processor grid does not hold exactly
/// `nranks` ranks or the box fails validate().
BoxSpec make_box_spec(int n, const std::array<int, 3>& elements,
                      const std::array<int, 3>& procs, bool periodic,
                      int nranks);

/// One rank's block of the box.
class Partition {
 public:
  Partition(const BoxSpec& spec, int rank);

  const BoxSpec& spec() const { return spec_; }
  int rank() const { return rank_; }

  // Processor coordinates (cx fastest in rank ordering).
  int cx() const { return cx_; }
  int cy() const { return cy_; }
  int cz() const { return cz_; }
  static int rank_of(const BoxSpec& spec, int cx, int cy, int cz) {
    return cx + spec.px * (cy + spec.py * cz);
  }

  // Owned global element ranges [x0, x1) etc.
  int x0() const { return x0_; }
  int x1() const { return x1_; }
  int y0() const { return y0_; }
  int y1() const { return y1_; }
  int z0() const { return z0_; }
  int z1() const { return z1_; }

  int nelx() const { return x1_ - x0_; }
  int nely() const { return y1_ - y0_; }
  int nelz() const { return z1_ - z0_; }
  int nel() const { return nelx() * nely() * nelz(); }

  /// Neighbor rank in direction (dx,dy,dz) in {-1,0,1}^3 on the processor
  /// grid, honoring periodicity. Returns -1 for a physical boundary in a
  /// non-periodic box.
  int neighbor_rank(int dx, int dy, int dz) const;

 private:
  static void split_range(int extent, int procs, int coord, int* lo, int* hi);

  BoxSpec spec_;
  int rank_;
  int cx_, cy_, cz_;
  int x0_, x1_, y0_, y1_, z0_, z1_;
};

}  // namespace cmtbone::mesh

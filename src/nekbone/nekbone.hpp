#pragma once
// Mini-Nekbone: the baseline mini-app the paper compares CMT-bone against
// (Fig. 7).
//
// Nekbone is the proxy for Nek5000's incompressible flow solve: a conjugate
// gradient iteration on the spectral-element Helmholtz operator
//   A = h1 * K + h2 * M
// (stiffness + mass), with direct-stiffness summation (gs_op) enforcing
// continuity across elements/ranks and allreduce dot products. It exercises
// the same substrates as CMT-bone — tensor-product mxm kernels and the
// gather-scatter library — but with a different balance: gs_op on every
// operator application rather than face-only nearest-neighbor exchange.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/layout.hpp"
#include "sem/operators.hpp"

namespace cmtbone::nekbone {

struct NekboneConfig {
  int n = 10;
  int ex = 8, ey = 8, ez = 8;
  int px = 0, py = 0, pz = 0;  // 0 = derive from comm size
  bool periodic = true;
  double h1 = 1.0;   // stiffness coefficient
  double h2 = 0.1;   // mass coefficient (> 0 keeps A SPD on a periodic box)
  gs::Method gs_method = gs::Method::kPairwise;
  /// Threads (including the caller) for the local stiffness operator's
  /// element loops. Elements are independent, so any value is bit-identical.
  /// 0 resolves from CMTBONE_THREADS_PER_RANK (default 1 = serial).
  int threads_per_rank = 0;
};

class Nekbone {
 public:
  Nekbone(comm::Comm& comm, const NekboneConfig& config);

  int n() const { return config_.n; }
  std::size_t points() const { return pts_; }
  gs::GatherScatter& gather_scatter() { return *gs_; }

  /// w = A u (local tensor-product operator + dssum). u must be continuous;
  /// w comes out continuous.
  void apply_ax(std::span<const double> u, std::span<double> w);

  /// Multiplicity-weighted global dot product (each shared GLL point counted
  /// once). Collective.
  double dot(std::span<const double> a, std::span<const double> b);

  /// Assemble b = dssum(M f) for a pointwise forcing callback f(x,y,z).
  void assemble_rhs(const std::function<double(double, double, double)>& f,
                    std::span<double> b);

  /// Evaluate a callback at every GLL node (for exact-solution comparison).
  void evaluate(const std::function<double(double, double, double)>& f,
                std::span<double> out) const;

  std::array<double, 3> node_coords(int e, int i, int j, int k) const;

  struct CgResult {
    int iterations = 0;
    double residual = 0.0;  // sqrt(r.r) at exit
  };
  /// Preconditioner-free CG for A x = b; x is both the initial guess and
  /// the result. Collective.
  CgResult solve_cg(std::span<double> x, std::span<const double> b,
                    int max_iterations, double tolerance);

  /// One "proxy" CG iteration worth of work on dummy data (for the Fig. 7
  /// style timing without a physical problem).
  void proxy_iteration();

 private:
  void local_ax(const double* u, double* w);
  // Stiffness + mass application for elements [e0, e1): the worker-pool
  // chunk body. Per-point arithmetic is independent across elements, so
  // chunking never changes a bit.
  void local_ax_range(const double* u, double* w, std::size_t e0,
                      std::size_t e1);

  comm::Comm* comm_;
  NekboneConfig config_;
  mesh::BoxSpec spec_;
  mesh::ElementLayout layout_;  // the static block layout
  sem::Operators ops_;
  int threads_ = 1;  // resolved threads_per_rank
  std::unique_ptr<gs::GatherScatter> gs_;

  std::size_t pts_ = 0;
  std::array<double, 3> h_;
  std::vector<double> geo_rr_, geo_ss_, geo_tt_, mass_;  // diagonal factors
  std::vector<double> inv_multiplicity_;
  std::vector<double> ur_, us_, ut_, scratch_;
  std::vector<double> cg_r_, cg_p_, cg_w_;  // CG work vectors
};

}  // namespace cmtbone::nekbone

#include "nekbone/nekbone.hpp"

#include <cmath>

#include "kernels/gradient.hpp"
#include "kernels/vecops.hpp"
#include "mesh/numbering.hpp"
#include "parallel/parallel.hpp"
#include "prof/callprof.hpp"

namespace cmtbone::nekbone {

Nekbone::Nekbone(comm::Comm& comm, const NekboneConfig& config)
    : comm_(&comm),
      config_(config),
      spec_(mesh::make_box_spec(config.n, {config.ex, config.ey, config.ez},
                                {config.px, config.py, config.pz},
                                config.periodic, comm.size())),
      layout_(mesh::ElementLayout::block(spec_, comm.rank())),
      ops_(sem::Operators::build(config.n)),
      threads_(parallel::resolve_threads(config.threads_per_rank)) {
  {
    prof::ScopedRegion region("gs_setup");
    std::vector<long long> ids = mesh::global_gll_ids(layout_);
    gs_ = std::make_unique<gs::GatherScatter>(
        comm, std::span<const long long>(ids), config.gs_method);
  }

  const int n = config_.n;
  const int nel = layout_.nel();
  pts_ = std::size_t(n) * n * n * nel;
  h_ = {1.0 / spec_.ex, 1.0 / spec_.ey, 1.0 / spec_.ez};

  // Diagonal geometric factors of the uniform-box stiffness operator:
  //   K u |_q = D_r^T (G_rr D_r u) + D_s^T (G_ss D_s u) + D_t^T (G_tt D_t u)
  //   G_rr = w_i w_j w_k * (hy hz) / (2 hx), etc.; M = w_i w_j w_k * J.
  const std::vector<double>& w = ops_.rule.weights;
  const double jac = 0.125 * h_[0] * h_[1] * h_[2];
  geo_rr_.resize(pts_);
  geo_ss_.resize(pts_);
  geo_tt_.resize(pts_);
  mass_.resize(pts_);
  std::size_t idx = 0;
  for (int e = 0; e < nel; ++e) {
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          const double www = w[i] * w[j] * w[k];
          geo_rr_[idx] = www * h_[1] * h_[2] / (2.0 * h_[0]);
          geo_ss_[idx] = www * h_[0] * h_[2] / (2.0 * h_[1]);
          geo_tt_[idx] = www * h_[0] * h_[1] / (2.0 * h_[2]);
          mass_[idx] = www * jac;
          ++idx;
        }
      }
    }
  }

  inv_multiplicity_.assign(pts_, 1.0);
  gs_->exec(std::span<double>(inv_multiplicity_), gs::ReduceOp::kSum);
  for (double& v : inv_multiplicity_) v = 1.0 / v;

  ur_.assign(pts_, 0.0);
  us_.assign(pts_, 0.0);
  ut_.assign(pts_, 0.0);
  scratch_.assign(pts_, 0.0);
  cg_r_.assign(pts_, 0.0);
  cg_p_.assign(pts_, 0.0);
  cg_w_.assign(pts_, 0.0);
}

std::array<double, 3> Nekbone::node_coords(int e, int i, int j, int k) const {
  auto g = layout_.global_coords(e);
  const std::vector<double>& r = ops_.rule.nodes;
  return {(g[0] + 0.5 * (r[i] + 1.0)) * h_[0],
          (g[1] + 0.5 * (r[j] + 1.0)) * h_[1],
          (g[2] + 0.5 * (r[k] + 1.0)) * h_[2]};
}

void Nekbone::local_ax(const double* u, double* w) {
  prof::ScopedRegion region("ax_ (local stiffness)");
  const std::size_t nel = std::size_t(layout_.nel());
  parallel::for_elements(nel, parallel::default_grain(nel, threads_), threads_,
                         [&](std::size_t e0, std::size_t e1) {
                           local_ax_range(u, w, e0, e1);
                         });
}

void Nekbone::local_ax_range(const double* u, double* w, std::size_t e0,
                             std::size_t e1) {
  const int n = config_.n;
  const int m = int(e1 - e0);
  const std::size_t epts = std::size_t(n) * n * n;
  const std::size_t off = e0 * epts;
  const std::size_t end = e1 * epts;

  // Gradients in reference coordinates for this chunk's elements only,
  // under the default kernel backend; every output point is contracted on
  // its own, so handing the kernels a sub-range produces the same
  // per-point contractions as the full-array call.
  constexpr kernels::GradVariant v = kernels::GradVariant::kDispatch;
  kernels::grad_r(v, ops_.d.data(), u + off, ur_.data() + off, n, m);
  kernels::grad_s(v, ops_.d.data(), u + off, us_.data() + off, n, m);
  kernels::grad_t(v, ops_.d.data(), u + off, ut_.data() + off, n, m);

  // Scale by the diagonal geometric factors (elementwise — vectorization
  // cannot change the bits).
  kernels::pointwise_scale(ur_.data() + off, geo_rr_.data() + off, end - off);
  kernels::pointwise_scale(us_.data() + off, geo_ss_.data() + off, end - off);
  kernels::pointwise_scale(ut_.data() + off, geo_tt_.data() + off, end - off);

  // Transpose gradients back: w = D_r^T ur + D_s^T us + D_t^T ut. Applying
  // grad with D^T is exactly the transpose contraction.
  kernels::grad_r(v, ops_.dt.data(), ur_.data() + off, w + off, n, m);
  kernels::grad_s(v, ops_.dt.data(), us_.data() + off, scratch_.data() + off,
                  n, m);
  for (std::size_t p = off; p < end; ++p) w[p] += scratch_[p];
  kernels::grad_t(v, ops_.dt.data(), ut_.data() + off, scratch_.data() + off,
                  n, m);
  kernels::ax_combine(w + off, scratch_.data() + off, mass_.data() + off,
                      u + off, config_.h1, config_.h2, end - off);
}

void Nekbone::apply_ax(std::span<const double> u, std::span<double> w) {
  local_ax(u.data(), w.data());
  prof::ScopedRegion region("gs_op_ (dssum)");
  gs_->exec(w, gs::ReduceOp::kSum);
}

double Nekbone::dot(std::span<const double> a, std::span<const double> b) {
  // The multiplicity-weighted inner product in weighted_dot's fixed 4-lane
  // order: deterministic and machine-independent.
  const double sum = kernels::weighted_dot(a.data(), b.data(),
                                           inv_multiplicity_.data(), pts_);
  return comm_->allreduce_one(sum, comm::ReduceOp::kSum);
}

void Nekbone::assemble_rhs(
    const std::function<double(double, double, double)>& f,
    std::span<double> b) {
  const int n = config_.n;
  std::size_t idx = 0;
  for (int e = 0; e < layout_.nel(); ++e) {
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          auto c = node_coords(e, i, j, k);
          b[idx] = mass_[idx] * f(c[0], c[1], c[2]);
          ++idx;
        }
      }
    }
  }
  gs_->exec(b, gs::ReduceOp::kSum);
}

void Nekbone::evaluate(const std::function<double(double, double, double)>& f,
                       std::span<double> out) const {
  const int n = config_.n;
  std::size_t idx = 0;
  for (int e = 0; e < layout_.nel(); ++e) {
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          auto c = node_coords(e, i, j, k);
          out[idx++] = f(c[0], c[1], c[2]);
        }
      }
    }
  }
}

Nekbone::CgResult Nekbone::solve_cg(std::span<double> x,
                                    std::span<const double> b,
                                    int max_iterations, double tolerance) {
  prof::ScopedRegion region("cg_solve");
  CgResult result;

  // r = b - A x; p = r.
  apply_ax(x, std::span<double>(cg_w_));
  for (std::size_t i = 0; i < pts_; ++i) cg_r_[i] = b[i] - cg_w_[i];
  cg_p_ = cg_r_;

  double rho = dot(cg_r_, cg_r_);
  const double stop = tolerance * tolerance;
  for (int it = 0; it < max_iterations; ++it) {
    if (rho <= stop) break;
    apply_ax(cg_p_, std::span<double>(cg_w_));
    double alpha = rho / dot(cg_p_, cg_w_);
    for (std::size_t i = 0; i < pts_; ++i) {
      x[i] += alpha * cg_p_[i];
      cg_r_[i] -= alpha * cg_w_[i];
    }
    double rho_next = dot(cg_r_, cg_r_);
    double beta = rho_next / rho;
    for (std::size_t i = 0; i < pts_; ++i) {
      cg_p_[i] = cg_r_[i] + beta * cg_p_[i];
    }
    rho = rho_next;
    result.iterations = it + 1;
  }
  result.residual = std::sqrt(rho);
  return result;
}

void Nekbone::proxy_iteration() {
  // One CG iteration's communication+compute on synthetic data: ax apply
  // (gradients + dssum) and two allreduce dot products.
  std::fill(cg_p_.begin(), cg_p_.end(), 1.0);
  apply_ax(cg_p_, std::span<double>(cg_w_));
  (void)dot(cg_p_, cg_w_);
  (void)dot(cg_w_, cg_w_);
}

}  // namespace cmtbone::nekbone

#include "core/element_rhs.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "mesh/faces.hpp"

namespace cmtbone::core {

namespace {

// 4-wide generic vectors with unaligned moves, as in kernels/vecops.cpp.
// GCC 12 at -O2 leaves loops like these scalar (its very-cheap vectorizer
// cost model gives up on a runtime trip count or a possible alias), so the
// vector shape is spelled out. This TU is compiled with -ffp-contract=off:
// every multiply and add rounds separately, as in the reference formulas.
typedef double V4 __attribute__((vector_size(32)));

inline V4 load4(const double* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(double* p, V4 v) { __builtin_memcpy(p, &v, sizeof v); }

// Lane copies, not 0 + x, so a -0.0 stays -0.0.
inline V4 bcast4(double x) { return V4{x, x, x, x}; }

// Per-thread scratch, grown to the largest request and reused: the rank
// thread and each pool worker own one, so a warm call allocates nothing
// (the N=10 volume term wants ~144 KB, above glibc's mmap threshold).
double* thread_scratch(std::size_t count) {
  thread_local std::vector<double> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

// ---- axis fluxes ---------------------------------------------------------------

void flux_of(const LinearPoint& p, const double* const* u, double* const* f,
             std::size_t lo, std::size_t hi, int axis) {
  const double c = p.velocity[axis];
  const V4 vc = bcast4(c);
  for (int field = 0; field < p.nfields; ++field) {
    const double* uf = u[field];
    double* ff = f[field];
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) store4(ff + i, vc * load4(uf + i));
    for (; i < hi; ++i) ff[i] = c * uf[i];
  }
}

void flux_of(const BurgersPoint& p, const double* const* u, double* const* f,
             std::size_t lo, std::size_t hi, int axis) {
  const double ha = 0.5 * p.velocity[axis];
  const V4 vha = bcast4(ha);
  const double* u0 = u[0];
  double* f0 = f[0];
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const V4 v = load4(u0 + i);
    store4(f0 + i, vha * v * v);
  }
  for (; i < hi; ++i) f0[i] = ha * u0[i] * u0[i];
}

void flux_of(const EulerPoint& p, const double* const* u, double* const* f,
             std::size_t lo, std::size_t hi, int axis) {
  // euler_flux, lane by lane.
  const V4 one = bcast4(1.0), half = bcast4(0.5);
  const V4 gm1 = bcast4(p.gamma - 1.0);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const V4 rho = load4(u[0] + i), mx = load4(u[1] + i),
             my = load4(u[2] + i), mz = load4(u[3] + i),
             e = load4(u[4] + i);
    const V4 inv_rho = one / rho;
    const V4 vx = mx * inv_rho, vy = my * inv_rho, vz = mz * inv_rho;
    const V4 kinetic = half * rho * (vx * vx + vy * vy + vz * vz);
    const V4 pressure = gm1 * (e - kinetic);
    const V4 vn = axis == 0 ? vx : axis == 1 ? vy : vz;
    V4 fl[5] = {rho * vn, mx * vn, my * vn, mz * vn, (e + pressure) * vn};
    fl[1 + axis] += pressure;
    for (int field = 0; field < 5; ++field) store4(f[field] + i, fl[field]);
  }
  for (; i < hi; ++i) {
    const State5 fl = euler_flux({u[0][i], u[1][i], u[2][i], u[3][i], u[4][i]},
                                 axis, p.gamma);
    f[0][i] = fl.rho;
    f[1][i] = fl.mx;
    f[2][i] = fl.my;
    f[3][i] = fl.mz;
    f[4][i] = fl.e;
  }
}

// ---- face signal speeds (nonlinear systems) ------------------------------------

// lambda = max(speed(in), speed(out)) at each of `count` face points.
void face_wavespeed(const BurgersPoint& p, const double* const* uin,
                    const double* const* uout, double* lambda,
                    std::size_t count, int axis) {
  const double a = p.velocity[axis];
  for (std::size_t q = 0; q < count; ++q) {
    lambda[q] = std::max(std::abs(a * uin[0][q]), std::abs(a * uout[0][q]));
  }
}

void face_wavespeed(const EulerPoint& p, const double* const* uin,
                    const double* const* uout, double* lambda,
                    std::size_t count, int axis) {
  for (std::size_t q = 0; q < count; ++q) {
    const State5 in{uin[0][q], uin[1][q], uin[2][q], uin[3][q], uin[4][q]};
    const State5 out{uout[0][q], uout[1][q], uout[2][q], uout[3][q],
                     uout[4][q]};
    lambda[q] = std::max(euler_wavespeed(in, axis, p.gamma),
                         euler_wavespeed(out, axis, p.gamma));
  }
}

// ---- volume term ------------------------------------------------------------

// One directional derivative of one element, in the dispatch backends'
// shapes (r: D * U; s: per k-slab U_k * D^T; t: U * D^T) when a contraction
// kernel is resolved, else with the variant's own loops.
void element_grad(const ElementRhs& k, int dir, const double* u, double* out) {
  const int n = k.n;
  if (k.mxm) {
    const int n2 = n * n;
    if (dir == 0) {
      k.mxm(k.d, n, u, out, n2);
    } else if (dir == 1) {
      for (int s = 0; s < n; ++s) {
        k.mxm(u + std::size_t(s) * n2, n, k.dt, out + std::size_t(s) * n2, n);
      }
    } else {
      k.mxm(u, n2, k.dt, out, n);
    }
    return;
  }
  const kernels::GradVariant v = k.variant == kernels::GradVariant::kDispatch
                                     ? kernels::GradVariant::kBasic
                                     : k.variant;
  if (dir == 0) kernels::grad_r(v, k.d, u, out, n, 1);
  if (dir == 1) kernels::grad_s(v, k.d, u, out, n, 1);
  if (dir == 2) kernels::grad_t(v, k.d, u, out, n, 1);
}

// rhs = ((0 - sr*gr) - ss*gs) - st*gt.
void combine(double* rhs, const double* gr, const double* gs, const double* gt,
             double sr, double ss, double st, std::size_t count) {
  const V4 zero = bcast4(0.0), vr = bcast4(sr), vs = bcast4(ss),
           vt = bcast4(st);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    store4(rhs + i, ((zero - vr * load4(gr + i)) - vs * load4(gs + i)) -
                        vt * load4(gt + i));
  }
  for (; i < count; ++i) {
    rhs[i] = ((0.0 - sr * gr[i]) - ss * gs[i]) - st * gt[i];
  }
}

template <class P>
void volume_elements(const P& phys, const ElementRhs& k,
                     std::span<const int> elems, std::size_t lo,
                     std::size_t hi) {
  const int nf = k.nfields;
  const std::size_t epts = std::size_t(k.n) * k.n * k.n;
  // flux[axis][field] blocks, then the three derivatives of one field.
  double* flux = thread_scratch(std::size_t(3 * nf + 3) * epts);
  double* g = flux + std::size_t(3 * nf) * epts;
  auto block = [&](int axis, int f) {
    return flux + (std::size_t(axis) * nf + f) * epts;
  };
  for (std::size_t ei = lo; ei < hi; ++ei) {
    const int e = elems[ei];
    const std::size_t base = std::size_t(e) * epts;
    const double* ue[kMaxFields];
    for (int f = 0; f < nf; ++f) ue[f] = k.u[f] + base;
    for (int axis = 0; axis < 3; ++axis) {
      double* fa[kMaxFields];
      for (int f = 0; f < nf; ++f) fa[f] = block(axis, f);
      flux_of(phys, ue, fa, 0, epts, axis);
    }
    const std::array<double, 3>& eh = k.extent(e);
    const double sr = 2.0 / eh[0], ss = 2.0 / eh[1], st = 2.0 / eh[2];
    for (int f = 0; f < nf; ++f) {
      for (int axis = 0; axis < 3; ++axis) {
        element_grad(k, axis, block(axis, f), g + axis * epts);
      }
      combine(k.rhs[f] + base, g, g + epts, g + 2 * epts, sr, ss, st, epts);
    }
  }
}

// ---- surface term -----------------------------------------------------------

// corr = ls * (rusanov(fin, fout, uin, uout, lambda, sign) - fin), the lifted
// correction `rhs -= lift * sign * (fstar - fin)` subtracts; hls is
// 0.5 * lambda * sign.
inline V4 lifted4(V4 fin, V4 fout, V4 uin, V4 uout, V4 hls, V4 ls) {
  const V4 fstar = bcast4(0.5) * (fin + fout) - hls * (uout - uin);
  return ls * (fstar - fin);
}

// Linear flux: fin = c * uin, a constant lambda = |c|.
void lift_linear(double c, const double* uin, const double* uout, double sign,
                 double ls, double* corr, std::size_t count) {
  const double hls = 0.5 * std::abs(c) * sign;
  const V4 vc = bcast4(c), vhls = bcast4(hls), vls = bcast4(ls);
  std::size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const V4 ui = load4(uin + q), uo = load4(uout + q);
    store4(corr + q, lifted4(vc * ui, vc * uo, ui, uo, vhls, vls));
  }
  for (; q < count; ++q) {
    const double fin = c * uin[q];
    const double fstar = rusanov(fin, c * uout[q], uin[q], uout[q],
                                 std::abs(c), sign);
    corr[q] = ls * (fstar - fin);
  }
}

// Precomputed face fluxes and per-point lambda (nonlinear systems).
void lift_general(const double* fin, const double* fout, const double* uin,
                  const double* uout, const double* lambda, double sign,
                  double ls, double* corr, std::size_t count) {
  const V4 half = bcast4(0.5), vsign = bcast4(sign), vls = bcast4(ls);
  std::size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const V4 hls = half * load4(lambda + q) * vsign;
    store4(corr + q, lifted4(load4(fin + q), load4(fout + q), load4(uin + q),
                             load4(uout + q), hls, vls));
  }
  for (; q < count; ++q) {
    const double fstar =
        rusanov(fin[q], fout[q], uin[q], uout[q], lambda[q], sign);
    corr[q] = ls * (fstar - fin[q]);
  }
}

// r[a*sa + b*sb] -= corr[a + n*b]: the face's points in the element volume.
void subtract_face(double* r, const double* corr, int n, std::size_t sa,
                   std::size_t sb) {
  for (int b = 0; b < n; ++b) {
    double* row = r + b * sb;
    const double* c = corr + std::size_t(b) * n;
    int a = 0;
    if (sa == 1) {
      for (; a + 4 <= n; a += 4) store4(row + a, load4(row + a) - load4(c + a));
    }
    for (; a < n; ++a) row[a * sa] -= c[a];
  }
}

template <class P>
void surface_elements(const P& phys, const ElementRhs& k,
                      std::span<const int> elems, std::size_t lo,
                      std::size_t hi) {
  constexpr bool kLinear = std::is_same_v<P, LinearPoint>;
  const int n = k.n;
  const int nf = k.nfields;
  const std::size_t nn = std::size_t(n) * n;
  const std::size_t epts = nn * n;
  double* corr = thread_scratch(std::size_t(2 * nf + 2) * nn);
  double* lambda = corr + nn;
  double* fin_buf = lambda + nn;
  double* fout_buf = fin_buf + std::size_t(nf) * nn;

  for (std::size_t ei = lo; ei < hi; ++ei) {
    const int e = elems[ei];
    const std::array<double, 3>& eh = k.extent(e);
    for (int face = 0; face < mesh::kFacesPerElement; ++face) {
      const int axis = mesh::face_axis(face);
      const int side = mesh::face_side(face);
      const double sign = side == 0 ? -1.0 : 1.0;
      const double lift = 2.0 / eh[axis] / k.w_edge;
      const double ls = lift * sign;
      const std::size_t foff = mesh::face_offset(face, e, n);
      const double* uin[kMaxFields];
      const double* uout[kMaxFields];
      double* fin[kMaxFields];
      double* fout[kMaxFields];
      for (int f = 0; f < nf; ++f) {
        uin[f] = k.myfaces + f * k.face_size + foff;
        uout[f] = k.nbrfaces + f * k.face_size + foff;
        fin[f] = fin_buf + f * nn;
        fout[f] = fout_buf + f * nn;
      }
      if constexpr (!kLinear) {
        flux_of(phys, uin, fin, 0, nn, axis);
        flux_of(phys, uout, fout, 0, nn, axis);
        face_wavespeed(phys, uin, uout, lambda, nn, axis);
      }
      // Face point (a, b) sits at volume index first + a*sa + b*sb
      // (mesh::face_point_volume_index).
      const std::size_t edge = side == 0 ? 0 : std::size_t(n - 1);
      std::size_t first, sa, sb;
      switch (axis) {
        case 0: first = edge, sa = n, sb = nn; break;
        case 1: first = n * edge, sa = 1, sb = nn; break;
        default: first = nn * edge, sa = 1, sb = n; break;
      }
      for (int f = 0; f < nf; ++f) {
        if constexpr (kLinear) {
          lift_linear(phys.velocity[axis], uin[f], uout[f], sign, ls, corr, nn);
        } else {
          lift_general(fin[f], fout[f], uin[f], uout[f], lambda, sign, ls,
                       corr, nn);
        }
        subtract_face(k.rhs[f] + e * epts + first, corr, n, sa, sb);
      }
    }
  }
}

}  // namespace

void axis_flux(const PointPhysics& physics, const double* const* u,
               double* const* f, std::size_t lo, std::size_t hi, int axis) {
  std::visit([&](const auto& p) { flux_of(p, u, f, lo, hi, axis); }, physics);
}

void ElementRhs::volume(std::span<const int> elems, std::size_t lo,
                        std::size_t hi) const {
  std::visit([&](const auto& p) { volume_elements(p, *this, elems, lo, hi); },
             physics);
}

void ElementRhs::surface(std::span<const int> elems, std::size_t lo,
                         std::size_t hi) const {
  std::visit([&](const auto& p) { surface_elements(p, *this, elems, lo, hi); },
             physics);
}

}  // namespace cmtbone::core

#pragma once
// Pointwise flux models for the conservation law dU/dt + div f(U) = R
// (paper Eq. 1), with R = 0 ("the latest version of CMT-nek has limited
// multiphase coupling, the source terms ... are set to zero").

#include <algorithm>
#include <array>
#include <cmath>
#include <variant>

namespace cmtbone::core {

// --- point physics -------------------------------------------------------------
// What the driver's element-local RHS kernel (core/element_rhs.hpp) needs
// to evaluate a system's fluxes and signal speeds inline: the constants of
// the flux model, one plain struct per family. HyperbolicSystem returns the
// one it steps; the kernel visits the variant once per call and runs loops
// specialized for that family, with no virtual call per point.

/// Linear advection of `nfields` fields: f = c_axis * u, |c_axis| the
/// signal speed everywhere (the proxy and validation modes).
struct LinearPoint {
  int nfields;
  std::array<double, 3> velocity;
};

/// Scalar Burgers: f = 0.5 * a_axis * u^2, signal speed |a_axis * u|.
struct BurgersPoint {
  std::array<double, 3> velocity;
};

/// Compressible Euler with a gamma-law gas (euler_flux / euler_wavespeed).
struct EulerPoint {
  double gamma;
};

using PointPhysics = std::variant<LinearPoint, BurgersPoint, EulerPoint>;

/// Conserved state (mass, momentum, total energy).
struct State5 {
  double rho, mx, my, mz, e;
};

inline double& momentum(State5& s, int axis) {
  switch (axis) {
    case 0: return s.mx;
    case 1: return s.my;
    default: return s.mz;
  }
}

/// Euler flux vector along `axis` for conserved state u.
inline State5 euler_flux(const State5& u, int axis, double gamma) {
  const double inv_rho = 1.0 / u.rho;
  const std::array<double, 3> vel = {u.mx * inv_rho, u.my * inv_rho,
                                     u.mz * inv_rho};
  const double kinetic = 0.5 * u.rho * (vel[0] * vel[0] + vel[1] * vel[1] +
                                        vel[2] * vel[2]);
  const double pressure = (gamma - 1.0) * (u.e - kinetic);
  const double vn = vel[axis];
  State5 f{u.rho * vn, u.mx * vn, u.my * vn, u.mz * vn, (u.e + pressure) * vn};
  // Pressure contributes to the normal momentum flux.
  momentum(f, axis) += pressure;
  return f;
}

/// Fastest signal speed |v_n| + c along `axis`.
inline double euler_wavespeed(const State5& u, int axis, double gamma) {
  const double inv_rho = 1.0 / u.rho;
  const std::array<double, 3> vel = {u.mx * inv_rho, u.my * inv_rho,
                                     u.mz * inv_rho};
  const double kinetic = 0.5 * u.rho * (vel[0] * vel[0] + vel[1] * vel[1] +
                                        vel[2] * vel[2]);
  const double pressure = (gamma - 1.0) * (u.e - kinetic);
  const double c = std::sqrt(std::max(gamma * pressure * inv_rho, 0.0));
  return std::abs(vel[axis]) + c;
}

/// Rusanov (local Lax-Friedrichs) scalar numerical flux along an axis.
/// `sign` is the outward normal component of the face (+1 high, -1 low);
/// `f_in`/`f_out` are the axis fluxes of the interior/exterior states and
/// `lambda` the max wavespeed of the pair.
inline double rusanov(double f_in, double f_out, double u_in, double u_out,
                      double lambda, double sign) {
  return 0.5 * (f_in + f_out) - 0.5 * lambda * sign * (u_out - u_in);
}

}  // namespace cmtbone::core

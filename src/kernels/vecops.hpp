#pragma once
// Pointwise vector kernels for the solver's non-contraction inner loops:
// the dssum multiplicity scaling, the Runge-Kutta stage updates, the
// Nekbone ax tail, and the CG inner products.
//
// These loops are memory-bound streams; the win over leaving them to the
// autovectorizer is a guaranteed vector shape (GCC generic vectors, so the
// TU vectorizes under the baseline flags with no ISA gamble) and an
// explicit accumulation-order contract:
//
//   * The elementwise ops (scale / stage updates / ax tail) touch each index
//     independently — vector width cannot change a single result bit, so
//     they are unconditionally safe for the bit-identity paths.
//   * weighted_dot is a reduction, so lane-parallel accumulation IS a
//     reorder of the plain ascending loop. It commits to one fixed 4-lane
//     accumulator shape folded in a fixed order, which is deterministic and
//     machine/ISA-independent, whatever the kernel backend.
//
// Compiled with -ffp-contract=off (see CMakeLists): the combine ops spell
// multiply and add separately and must stay that way to match the scalar
// loops they replace.

#include <cstddef>

namespace cmtbone::kernels {

/// x[i] *= s[i] for i in [0, count).
void pointwise_scale(double* x, const double* s, std::size_t count);

/// un[i] = a*u0[i] + b*(up[i] + dt*r[i]) — one Shu-Osher stage of the SSP
/// integrators. un may alias u0 or up (each index is read before written).
void ssp_stage(double* un, const double* u0, const double* up, const double* r,
               double a, double b, double dt, std::size_t count);

/// One classic-RK4 stage update from stage slope k: acc[i] = k[i] on the
/// first stage, else acc[i] + 2*k[i]; ustage[i] = u[i] + h*k[i].
void rk4_stage(double* acc, double* ustage, const double* u, const double* k,
               double h, bool first, std::size_t count);

/// The RK4 finish: u[i] += w*(acc[i] + k[i]) with w = dt/6.
void rk4_finish(double* u, const double* acc, const double* k, double w,
                std::size_t count);

/// w[i] = h1*(w[i] + s[i]) + h2*m[i]*u[i] — the Nekbone local_ax tail,
/// in the historical scalar evaluation order (h2*m rounds first).
void ax_combine(double* w, const double* s, const double* m, const double* u,
                double h1, double h2, std::size_t count);

/// sum over i of a[i]*b[i]*w[i], in the 4-lane accumulator shape described
/// above.
double weighted_dot(const double* a, const double* b, const double* w,
                    std::size_t count);

}  // namespace cmtbone::kernels

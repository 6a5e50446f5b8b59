#pragma once
// The element-local RHS kernel: the volume and surface terms of the DG
// right-hand side, one element at a time, with the system's point physics
// evaluated inline.
//
// Volume term, per element: the three axis fluxes of every field go into
// per-thread scratch, the three derivatives of each field follow, and
// every rhs point is written once as
//
//   rhs = ((0 - s_r * g_r) - s_s * g_s) - s_t * g_t,   s_axis = 2 / h_axis,
//
// which is the value the former zero fill plus three `rhs -= s * g` sweeps
// produced. Surface term, per element and face in order 0..5: the Rusanov
// correction of each field over the face's contiguous points, lifted and
// subtracted from the element's face points.
//
// Per-point contract: every rhs point sees its volume write, then (in the
// driver) the particle source, then the surface corrections of its own
// element's faces in face order, each with the operations and rounding
// order of the reference formulas in core/flux.hpp. Nothing depends on how
// an element list is split into ranges or across threads, which keeps the
// overlap, thread-pool and rank splits bit-identical.
//
// Pointwise loops use 4-wide generic vectors (the kernels/vecops.cpp
// idiom): every operation is elementwise, so the width never changes a bit.

#include <array>
#include <cstddef>
#include <span>

#include "core/flux.hpp"
#include "core/system.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"

namespace cmtbone::core {

/// Axis flux of every field over points [lo, hi) under `physics`:
/// u[f][p] -> f[f][p]. This is HyperbolicSystem::flux_range.
void axis_flux(const PointPhysics& physics, const double* const* u,
               double* const* f, std::size_t lo, std::size_t hi, int axis);

/// What one RHS evaluation's element kernel reads and writes, resolved once
/// per RHS by the driver. Range calls from different threads share it
/// read-only and write disjoint elements of rhs.
struct ElementRhs {
  PointPhysics physics;
  int n = 0;
  int nfields = 0;
  const double* u[kMaxFields] = {};
  double* rhs[kMaxFields] = {};

  // Derivatives: the contraction kernel for length n under the run's
  // kernel backend (nullptr: the basic loops), or, for a variant other
  // than kDispatch, that variant's loops.
  kernels::GradVariant variant = kernels::GradVariant::kDispatch;
  kernels::MxmFixedFn mxm = nullptr;
  const double* d = nullptr;   // D, n x n
  const double* dt = nullptr;  // D^T

  // Surface: the packed face arrays, nfields stacked of face_size each,
  // and the GLL edge weight.
  const double* myfaces = nullptr;
  const double* nbrfaces = nullptr;
  std::size_t face_size = 0;
  double w_edge = 0.0;

  // Element extents, one per local element on every mesh.
  const std::array<double, 3>* elem_h = nullptr;

  const std::array<double, 3>& extent(int e) const { return elem_h[e]; }

  /// Volume term of elems[lo, hi); overwrites those elements' rhs.
  void volume(std::span<const int> elems, std::size_t lo,
              std::size_t hi) const;
  /// Surface term of elems[lo, hi); subtracts from their rhs.
  void surface(std::span<const int> elems, std::size_t lo,
               std::size_t hi) const;
};

}  // namespace cmtbone::core

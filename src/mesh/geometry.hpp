#pragma once
// Per-axis coordinate maps: the physical geometry of the structured box.
//
// The seed mesh was the unit cube split uniformly — every element had extents
// (1/ex, 1/ey, 1/ez). The scenario pack generalizes this with per-axis 1-D
// coordinate maps: each axis carries a physical length and a monotone map
// from layer index to breakpoint, so the box can be stretched (geometric
// ratio between neighboring layers), boundary-clustered (tanh), or given a
// high aspect ratio (per-axis lengths). Element (gx,gy,gz) then has extents
// (wx[gx], wy[gy], wz[gz]) — the per-element metric the SEM geometric
// factors (volume scale 2/h, surface lift, quadrature Jacobian, CFL spacing)
// consume in core::Driver.
//
// The topology (element adjacency, face pairing, rank partition) is
// untouched: coordinate maps change *where* the elements sit, never *who*
// talks to whom. What they stress is everything that assumed a single
// per-axis h — notably the CFL dt (which must follow the smallest element)
// and the per-element lift/scale factors.

#include <string>
#include <vector>

namespace cmtbone::mesh {

enum class AxisMapKind {
  /// Equal widths length/count — the historical unit-box behavior when
  /// length == 1.
  kUniform,
  /// Geometric stretching: neighboring layer widths have ratio `param`
  /// (> 0, != 1); widths grow toward the high end for param > 1. The
  /// classic boundary-layer / far-field grading.
  kGeometric,
  /// Symmetric tanh clustering with strength `param` > 0: layers crowd
  /// toward both ends of the axis (breakpoints x_i follow a scaled tanh of
  /// the uniform fractions). param -> 0 degenerates to uniform.
  kTanh,
};

/// One axis of the box geometry: a physical extent plus a monotone
/// layer-index -> coordinate map. Every rank evaluates the same closed-form
/// map, so the geometry is replicated-deterministic by construction.
struct AxisMap {
  AxisMapKind kind = AxisMapKind::kUniform;
  double param = 1.0;   // ratio (geometric) or clustering strength (tanh)
  double length = 1.0;  // physical extent of the axis

  bool uniform() const { return kind == AxisMapKind::kUniform; }
};

/// `count + 1` strictly ascending breakpoints from 0 to `length` (the last
/// one exactly `length`). Throws std::invalid_argument on a non-positive
/// count/length or an out-of-range map parameter.
std::vector<double> axis_breakpoints(const AxisMap& map, int count);

/// The `count` per-layer widths (adjacent breakpoint differences, all
/// positive). For kUniform every entry is exactly length / count. Throws
/// like axis_breakpoints.
std::vector<double> axis_widths(const AxisMap& map, int count);

}  // namespace cmtbone::mesh

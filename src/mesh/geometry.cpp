#include "mesh/geometry.hpp"

#include <cmath>
#include <stdexcept>

namespace cmtbone::mesh {

namespace {

// The checks every map kind shares; the stretched kinds also check their
// parameter in axis_breakpoints.
void check_count_and_length(const AxisMap& map, int count) {
  if (count < 1) {
    throw std::invalid_argument("axis_breakpoints: count must be >= 1");
  }
  if (!(map.length > 0.0) || !std::isfinite(map.length)) {
    throw std::invalid_argument("axis_breakpoints: length must be positive");
  }
}

}  // namespace

std::vector<double> axis_breakpoints(const AxisMap& map, int count) {
  check_count_and_length(map, count);
  std::vector<double> x(std::size_t(count) + 1);
  switch (map.kind) {
    case AxisMapKind::kUniform: {
      const double h = map.length / count;
      for (int i = 0; i <= count; ++i) x[i] = i * h;
      break;
    }
    case AxisMapKind::kGeometric: {
      const double r = map.param;
      if (!(r > 0.0) || !std::isfinite(r)) {
        throw std::invalid_argument(
            "axis_breakpoints: geometric ratio must be positive");
      }
      if (r == 1.0) {
        const double h = map.length / count;
        for (int i = 0; i <= count; ++i) x[i] = i * h;
        break;
      }
      // Widths w_i = w0 * r^i; the partial sums are the breakpoints.
      const double w0 =
          map.length * (1.0 - r) / (1.0 - std::pow(r, double(count)));
      double acc = 0.0;
      x[0] = 0.0;
      for (int i = 0; i < count; ++i) {
        acc += w0 * std::pow(r, double(i));
        x[std::size_t(i) + 1] = acc;
      }
      break;
    }
    case AxisMapKind::kTanh: {
      const double b = map.param;
      if (!(b > 0.0) || !std::isfinite(b)) {
        throw std::invalid_argument(
            "axis_breakpoints: tanh strength must be positive");
      }
      const double denom = std::tanh(b);
      for (int i = 0; i <= count; ++i) {
        const double s = 2.0 * double(i) / double(count) - 1.0;  // [-1, 1]
        x[i] = 0.5 * map.length * (1.0 + std::tanh(b * s) / denom);
      }
      break;
    }
  }
  // Pin the endpoints exactly and insist on strict monotonicity — a map
  // whose rounding ever produced a non-positive width would silently break
  // the CFL bound and the geometric factors downstream.
  x.front() = 0.0;
  x.back() = map.length;
  for (int i = 0; i < count; ++i) {
    if (!(x[std::size_t(i) + 1] > x[i])) {
      throw std::invalid_argument(
          "axis_breakpoints: map produced a non-positive layer width");
    }
  }
  return x;
}

std::vector<double> axis_widths(const AxisMap& map, int count) {
  if (map.uniform()) {
    // Exactly the historical constant — not a breakpoint difference, so the
    // uniform path reproduces the seed geometry bit for bit.
    check_count_and_length(map, count);
    return std::vector<double>(std::size_t(count), map.length / count);
  }
  const std::vector<double> x = axis_breakpoints(map, count);
  std::vector<double> w(std::size_t(count), 0.0);
  for (int i = 0; i < count; ++i) w[i] = x[std::size_t(i) + 1] - x[i];
  return w;
}

}  // namespace cmtbone::mesh

#include "mesh/face_numbering.hpp"

#include <array>

#include "mesh/faces.hpp"

namespace cmtbone::mesh {

std::vector<long long> face_point_gids(const ElementLayout& layout) {
  const BoxSpec& spec = layout.spec();
  const int n = spec.n;
  const std::array<int, 3> extent = {spec.ex, spec.ey, spec.ez};

  // Mesh-face planes per axis: between-element planes wrap periodically,
  // otherwise the two boundary planes are distinct.
  std::array<long long, 3> planes;
  for (int ax = 0; ax < 3; ++ax) {
    planes[ax] = spec.periodic ? extent[ax] : extent[ax] + 1;
  }
  // Transverse element-grid extents per axis (ascending order, matching the
  // (a, b) face-point convention in faces.hpp).
  const std::array<std::array<int, 2>, 3> transverse = {{
      {spec.ey, spec.ez},  // x faces vary over (y, z)
      {spec.ex, spec.ez},  // y faces vary over (x, z)
      {spec.ex, spec.ey},  // z faces vary over (x, y)
  }};

  std::array<long long, 3> axis_base;
  long long base = 0;
  for (int ax = 0; ax < 3; ++ax) {
    axis_base[ax] = base;
    base += planes[ax] * transverse[ax][0] * transverse[ax][1] *
            (long long)(n) * n;
  }

  std::vector<long long> ids(face_array_size(n, layout.nel()));
  for (int e = 0; e < layout.nel(); ++e) {
    auto g = layout.global_coords(e);
    for (int f = 0; f < kFacesPerElement; ++f) {
      const int ax = face_axis(f);
      long long plane = g[ax] + face_side(f);
      if (spec.periodic) plane %= extent[ax];
      const std::array<int, 2> t = {
          ax == 0 ? g[1] : g[0],
          ax == 2 ? g[1] : g[2],
      };
      long long face_linear =
          plane + planes[ax] * (t[0] + (long long)(transverse[ax][0]) * t[1]);
      long long point_base =
          axis_base[ax] + face_linear * (long long)(n) * n;
      for (int b = 0; b < n; ++b) {
        for (int a = 0; a < n; ++a) {
          ids[face_offset(f, e, n) + a + std::size_t(n) * b] =
              point_base + a + (long long)(n) * b;
        }
      }
    }
  }
  return ids;
}

std::vector<long long> face_point_keys(const ElementLayout& layout) {
  const int n = layout.spec().n;
  const std::size_t fpts = std::size_t(n) * n;
  std::vector<long long> keys(face_array_size(n, layout.nel()));
  for (int e = 0; e < layout.nel(); ++e) {
    const long long gid = layout.gid_of(e);
    for (int f = 0; f < kFacesPerElement; ++f) {
      const long long base = (gid * kFacesPerElement + f) * (long long)(fpts);
      long long* dst = keys.data() + face_offset(f, e, n);
      for (std::size_t p = 0; p < fpts; ++p) dst[p] = base + (long long)(p);
    }
  }
  return keys;
}

}  // namespace cmtbone::mesh

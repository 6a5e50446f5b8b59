#include "mesh/faces.hpp"

namespace cmtbone::mesh {

void full2face(const double* u, double* faces, int n, int nel) {
  const std::size_t elem_stride = std::size_t(n) * n * n;
  for (int e = 0; e < nel; ++e) {
    const double* ue = u + e * elem_stride;
    for (int f = 0; f < kFacesPerElement; ++f) {
      double* fe = faces + face_offset(f, e, n);
      for (int b = 0; b < n; ++b) {
        for (int a = 0; a < n; ++a) {
          fe[a + std::size_t(n) * b] = ue[face_point_volume_index(f, a, b, n)];
        }
      }
    }
  }
}

}  // namespace cmtbone::mesh

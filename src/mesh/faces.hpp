#pragma once
// Element face conventions and the full2face map.
//
// full2face_cmt is one of CMT-bone's key kernels (paper §IV): it "creates an
// array of surface data, that needs to be transferred to the neighbors, from
// the volume data for each element".
//
// Face numbering: face = 2*axis + side, side 0 = low coordinate.
//   f0: i = 0     f1: i = n-1    (x faces)
//   f2: j = 0     f3: j = n-1    (y faces)
//   f4: k = 0     f5: k = n-1    (z faces)
// A face holds n*n points indexed (a,b) = the two transverse volume indices
// in ascending axis order: x faces -> (j,k), y faces -> (i,k), z -> (i,j).
// Adjacent axis-aligned elements see coincident (a,b), so no orientation
// permutation is needed on a structured box mesh.
//
// Face-array layout: faces[a + n*(b + n*(f + 6*e))].

#include <cstddef>

namespace cmtbone::mesh {

inline constexpr int kFacesPerElement = 6;

inline int face_axis(int f) { return f / 2; }
inline int face_side(int f) { return f % 2; }
inline int opposite_face(int f) { return f ^ 1; }

/// Volume index (within one element) of face point (a,b) of face f.
inline std::size_t face_point_volume_index(int f, int a, int b, int n) {
  const int edge = (face_side(f) == 0) ? 0 : n - 1;
  switch (face_axis(f)) {
    case 0: return std::size_t(edge) + std::size_t(n) * (a + std::size_t(n) * b);
    case 1: return std::size_t(a) + std::size_t(n) * (edge + std::size_t(n) * b);
    default: return std::size_t(a) + std::size_t(n) * (b + std::size_t(n) * edge);
  }
}

/// Offset of face f of element e in a face array.
inline std::size_t face_offset(int f, int e, int n) {
  return std::size_t(n) * n * (f + std::size_t(kFacesPerElement) * e);
}

/// Extract all element faces from volume data: u is (n,n,n,nel), faces is
/// (n,n,6,nel). This is full2face_cmt.
void full2face(const double* u, double* faces, int n, int nel);

/// Bytes of one field's face array.
inline std::size_t face_array_size(int n, int nel) {
  return std::size_t(n) * n * kFacesPerElement * nel;
}

}  // namespace cmtbone::mesh

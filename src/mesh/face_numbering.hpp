#pragma once
// Global numbering of element *face points* for gather-scatter-based
// nearest-neighbor exchange.
//
// Nek5000 (and hence CMT-nek) drives its DG surface exchange through the
// gather-scatter library: every face point of every element gets a global
// id shared by exactly the one coincident face point of the neighboring
// element (unlike the volume GLL numbering, where an edge/corner id can
// have up to eight copies). A gs_op(add) over these ids then yields
// mine + neighbor at every interior face point.
//
// Ids are built from the global grid of mesh faces: an x-face plane sits
// between elements (gx-1) and gx, so plane index runs over [0, ex) for a
// periodic box ([0, ex] otherwise), and similarly for y and z. The id packs
// (axis, plane, transverse element coords, point-in-face) uniquely; the two
// elements adjacent to a face compute identical ids with identical (a, b)
// orientation because the mesh is a structured box.

#include <vector>

#include "mesh/layout.hpp"

namespace cmtbone::mesh {

/// One id per local face slot of `layout`'s elements, in face-array layout
/// (a, b, face, element): id[a + n*(b + n*(f + 6*e))]. Interior (and
/// periodic-wrap) face points share their id with exactly one other slot —
/// the coincident point of the neighbor element, possibly on another rank.
/// Physical-boundary points (non-periodic box) hold unique ids.
std::vector<long long> face_point_gids(const ElementLayout& layout);

/// Canonical per-slot reduction keys for ordered gather-scatter over face
/// arrays: key = (gid(element)*6 + face)*n^2 + point. The two copies of an
/// interior face id always come from distinct (element, face) slots — even
/// for the ex==1 self-periodic wrap, where one element's two opposite faces
/// pair with each other — so the keys order every id's copies identically
/// on all ranks, independent of element ownership.
std::vector<long long> face_point_keys(const ElementLayout& layout);

}  // namespace cmtbone::mesh

#pragma once
// Global numbering of GLL points.
//
// Nek5000 stores spectral-element coefficients redundantly: every element
// keeps its own copy of points on shared faces/edges/corners, and each
// local point carries the *global id* of the grid point it coincides with
// (paper §VI: "each processor is given index sets containing the global ids
// of the elements using gs_setup"). The gather-scatter library then reduces
// over all copies of each id. This module derives those ids for the
// structured box mesh.

#include <vector>

#include "mesh/layout.hpp"

namespace cmtbone::mesh {

/// One global id per local GLL point of `layout`'s elements, in field
/// layout (i,j,k,e), i fastest. Points shared between adjacent elements
/// (and, for a periodic box, across the wrap) receive equal ids, whichever
/// ranks own the elements. Ids are dense in [0, total_points).
std::vector<long long> global_gll_ids(const ElementLayout& layout);

/// Canonical per-slot reduction keys for ordered gather-scatter: every
/// local GLL slot gets the globally-unique key gid(element)*n^3 + point.
/// Copies of one global id always come from distinct (element, point)
/// slots, so keys order the copies of an id identically on every rank and
/// independently of which rank owns which element — the gather-scatter
/// fold over these keys is layout-invariant bit for bit.
std::vector<long long> global_gll_keys(const ElementLayout& layout);

/// Total distinct global GLL points of the box (the id space size).
long long total_gll_points(const BoxSpec& spec);

}  // namespace cmtbone::mesh

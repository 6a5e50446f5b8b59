#include "mesh/layout.hpp"

#include <algorithm>
#include <stdexcept>

#include "mesh/faces.hpp"

namespace cmtbone::mesh {

ElementLayout ElementLayout::block(const BoxSpec& spec, int rank) {
  spec.validate();  // before the owner map is sized from the grid
  std::vector<int> owner(std::size_t(spec.total_elements()), 0);
  for (int cz = 0; cz < spec.pz; ++cz) {
    for (int cy = 0; cy < spec.py; ++cy) {
      for (int cx = 0; cx < spec.px; ++cx) {
        const int r = Partition::rank_of(spec, cx, cy, cz);
        Partition part(spec, r);
        for (int gz = part.z0(); gz < part.z1(); ++gz) {
          for (int gy = part.y0(); gy < part.y1(); ++gy) {
            for (int gx = part.x0(); gx < part.x1(); ++gx) {
              owner[std::size_t(gx + 1LL * spec.ex * (gy + 1LL * spec.ey * gz))] = r;
            }
          }
        }
      }
    }
  }
  return ElementLayout(spec, rank, std::move(owner));
}

ElementLayout::ElementLayout(const BoxSpec& spec, int rank,
                             std::vector<int> owner)
    : spec_(spec), rank_(rank), owner_(std::move(owner)) {
  // A bad spec (n < 2, an empty grid, fewer elements than processors along
  // an axis) would reach the numbering as a division by zero.
  spec_.validate();
  if (static_cast<long long>(owner_.size()) != spec_.total_elements()) {
    throw std::invalid_argument(
        "ElementLayout: owner map size does not match the element grid");
  }
  if (rank_ < 0 || rank_ >= spec_.nranks()) {
    throw std::invalid_argument("ElementLayout: rank out of range");
  }
  for (int r : owner_) {
    if (r < 0 || r >= spec_.nranks()) {
      throw std::invalid_argument("ElementLayout: owner rank out of range");
    }
  }
  // Ascending-gid local order: iterating the owner map in gid order IS the
  // invariant (see the header) — no sort needed.
  for (std::size_t g = 0; g < owner_.size(); ++g) {
    if (owner_[g] == rank_) owned_.push_back(static_cast<long long>(g));
  }
}

int ElementLayout::local_of_gid(long long g) const {
  auto it = std::lower_bound(owned_.begin(), owned_.end(), g);
  if (it == owned_.end() || *it != g) return -1;
  return int(it - owned_.begin());
}

long long ElementLayout::face_neighbor(long long g, int f) const {
  std::array<int, 3> c = coords_of_gid(g);
  const std::array<int, 3> extent = {spec_.ex, spec_.ey, spec_.ez};
  const int ax = face_axis(f);
  c[ax] += face_side(f) == 0 ? -1 : 1;
  if (c[ax] < 0 || c[ax] >= extent[ax]) {
    if (!spec_.periodic) return -1;
    c[ax] = (c[ax] + extent[ax]) % extent[ax];
  }
  return gid(c[0], c[1], c[2]);
}

bool ElementLayout::element_touches_remote(int e) const {
  for (int f = 0; f < kFacesPerElement; ++f) {
    const long long ng = face_neighbor(gid_of(e), f);
    // A physical boundary (-1) mirrors locally and does not count.
    if (ng >= 0 && owner_of_gid(ng) != rank_) return true;
  }
  return false;
}

ElementClasses classify_interior_boundary(const ElementLayout& layout) {
  ElementClasses classes;
  for (int e = 0; e < layout.nel(); ++e) {
    if (layout.element_touches_remote(e)) {
      classes.boundary.push_back(e);
    } else {
      classes.interior.push_back(e);
    }
  }
  return classes;
}

}  // namespace cmtbone::mesh

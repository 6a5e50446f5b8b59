#pragma once
// Element ownership over the structured box mesh: the one element index.
//
// Every element-indexed structure — GLL and face-point numbering, the
// face-exchange plans, the interior/boundary classes, core::Driver's
// fields and extents — is built from an ElementLayout. Ownership is an
// arbitrary map gid -> rank replicated on every rank, so the dynamic load
// balancer (Zhai et al., PAPERS.md) can move single elements between
// ranks; the static decomposition of the paper's Fig. 3 is the block()
// layout, built from mesh::Partition's block ranges.
//
// Local ordering invariant: a rank's owned elements are kept in ascending
// global-id order, with gid = gx + ex*(gy + ey*gz) (x fastest). For the
// block layout this is the lexicographic order of the rank's block (x
// fastest), so the static decomposition keeps its historical local order —
// the anchor for the balancer's "migration changes *where*, never *what*"
// guarantee.

#include <array>
#include <vector>

#include "mesh/partition.hpp"

namespace cmtbone::mesh {

class ElementLayout {
 public:
  /// The static block layout: rank r owns Partition(spec, r)'s block.
  static ElementLayout block(const BoxSpec& spec, int rank);

  /// Arbitrary ownership map: owner[gid] in [0, spec.nranks()) for every
  /// global element. Throws std::invalid_argument when the spec fails
  /// BoxSpec::validate() or on a size/range mismatch.
  ElementLayout(const BoxSpec& spec, int rank, std::vector<int> owner);

  const BoxSpec& spec() const { return spec_; }
  int rank() const { return rank_; }
  int nranks() const { return spec_.nranks(); }
  long long total_elements() const { return spec_.total_elements(); }

  /// Elements this rank owns (ascending gid order defines local indices).
  int nel() const { return int(owned_.size()); }
  const std::vector<long long>& owned_gids() const { return owned_; }
  const std::vector<int>& owner() const { return owner_; }

  long long gid(int gx, int gy, int gz) const {
    return gx + 1LL * spec_.ex * (gy + 1LL * spec_.ey * gz);
  }
  std::array<int, 3> coords_of_gid(long long g) const {
    const int gx = int(g % spec_.ex);
    const int gy = int((g / spec_.ex) % spec_.ey);
    const int gz = int(g / (1LL * spec_.ex * spec_.ey));
    return {gx, gy, gz};
  }

  long long gid_of(int e) const { return owned_[e]; }
  std::array<int, 3> global_coords(int e) const {
    return coords_of_gid(owned_[e]);
  }

  /// Local index of a gid, or -1 when this rank does not own it.
  int local_of_gid(long long g) const;
  int local_index(int gx, int gy, int gz) const {
    return local_of_gid(gid(gx, gy, gz));
  }

  int owner_of_gid(long long g) const { return owner_[std::size_t(g)]; }
  int owner_of(int gx, int gy, int gz) const {
    return owner_of_gid(gid(gx, gy, gz));
  }
  bool owns(int gx, int gy, int gz) const {
    return owner_of(gx, gy, gz) == rank_;
  }

  /// Gid of the element across face f (mesh/faces.hpp numbering) of
  /// element g, wrapping around a periodic box; -1 when the face lies on a
  /// physical boundary. The one face-neighbour rule: the exchange plans,
  /// the element classes and the rebalancer all step across faces here.
  long long face_neighbor(long long g, int f) const;

  /// True when any face of local element `e` pairs with an element owned by
  /// another rank (including across the periodic wrap). Physical-boundary
  /// faces mirror locally and do not count.
  bool element_touches_remote(int e) const;

  /// Identical ownership everywhere (spec assumed equal).
  bool same_ownership(const ElementLayout& other) const {
    return owner_ == other.owner_;
  }

 private:
  BoxSpec spec_;
  int rank_ = 0;
  std::vector<int> owner_;       // size total_elements(), gid-indexed
  std::vector<long long> owned_; // my gids, ascending
};

/// Interior/boundary split of a rank's elements for compute–communication
/// overlap: an element is `boundary` when at least one of its six faces
/// pairs with an element on another rank (its surface term needs in-flight
/// halo data), `interior` otherwise. Both lists are in ascending local
/// order and together cover 0..nel-1 exactly once.
struct ElementClasses {
  std::vector<int> interior;
  std::vector<int> boundary;
};

ElementClasses classify_interior_boundary(const ElementLayout& layout);

}  // namespace cmtbone::mesh

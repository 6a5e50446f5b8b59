#pragma once
// Owner maps for the mesh tests. Every element-index function the solver
// runs is tested on the block layout it starts from and on two non-block
// maps a rebalance can produce: a strided map (owner[g] = g % P, so every
// neighbor along x lives on another rank) and a seeded random map that
// leaves no rank empty.

#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/layout.hpp"
#include "util/rng.hpp"

namespace cmtbone::test {

enum class OwnerMap { kBlock, kStrided, kRandom };

inline constexpr OwnerMap kOwnerMaps[] = {OwnerMap::kBlock, OwnerMap::kStrided,
                                          OwnerMap::kRandom};

inline const char* owner_map_name(OwnerMap kind) {
  switch (kind) {
    case OwnerMap::kBlock: return "block";
    case OwnerMap::kStrided: return "strided";
    case OwnerMap::kRandom: return "random";
  }
  return "?";
}

/// The gid -> rank map of `kind` over `spec`'s elements (identical on every
/// rank). `seed` only affects kRandom.
inline std::vector<int> owner_map(const mesh::BoxSpec& spec, OwnerMap kind,
                                  std::uint64_t seed = 1) {
  if (kind == OwnerMap::kBlock) {
    return mesh::ElementLayout::block(spec, 0).owner();
  }
  const int p = spec.nranks();
  std::vector<int> owner(static_cast<std::size_t>(spec.total_elements()));
  for (std::size_t g = 0; g < owner.size(); ++g) owner[g] = int(g % p);
  if (kind == OwnerMap::kRandom) {
    // The first p entries keep one element per rank; the rest are drawn at
    // random, then a Fisher-Yates shuffle spreads them over the box.
    util::SplitMix64 rng(seed);
    for (std::size_t g = std::size_t(p); g < owner.size(); ++g) {
      owner[g] = int(rng.below(std::uint64_t(p)));
    }
    for (std::size_t i = owner.size(); i > 1; --i) {
      std::swap(owner[i - 1], owner[rng.below(i)]);
    }
  }
  return owner;
}

/// Rank `rank`'s view of the `kind` map.
inline mesh::ElementLayout layout_of(const mesh::BoxSpec& spec, int rank,
                                     OwnerMap kind, std::uint64_t seed = 1) {
  return mesh::ElementLayout(spec, rank, owner_map(spec, kind, seed));
}

}  // namespace cmtbone::test

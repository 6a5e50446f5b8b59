#pragma once
// Checked raw-byte copies.
//
// std::memcpy with a null pointer is undefined behavior even for length
// zero, and the degenerate topologies this code must survive — 1-rank jobs,
// empty exchange plans, zero-element shipments, empty message payloads —
// produce exactly that shape: `vec.data()` of an empty vector is allowed to
// be null. PR 4 fixed two such sites in the comm layer; every pack/unpack
// and serialization path now routes through this helper instead of raw
// memcpy so the class is dead, not resting.

#include <cstddef>
#include <cstring>

namespace cmtbone::util {

/// memcpy(dst, src, bytes) with the zero-length case made well-defined: a
/// no-op even when either pointer is null.
inline void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes == 0) return;
  std::memcpy(dst, src, bytes);
}

}  // namespace cmtbone::util

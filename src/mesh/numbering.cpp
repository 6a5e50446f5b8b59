#include "mesh/numbering.hpp"

namespace cmtbone::mesh {

namespace {
// Points per direction of the global (conforming) GLL grid. Elements share
// their boundary points, so each element contributes n-1 new layers; a
// non-periodic box keeps the final face, a periodic one wraps it.
long long grid_extent(int elements, int n, bool periodic) {
  return 1LL * elements * (n - 1) + (periodic ? 0 : 1);
}
}  // namespace

long long total_gll_points(const BoxSpec& spec) {
  return grid_extent(spec.ex, spec.n, spec.periodic) *
         grid_extent(spec.ey, spec.n, spec.periodic) *
         grid_extent(spec.ez, spec.n, spec.periodic);
}

std::vector<long long> global_gll_ids(const ElementLayout& layout) {
  const BoxSpec& spec = layout.spec();
  const int n = spec.n;
  const long long gx_extent = grid_extent(spec.ex, n, spec.periodic);
  const long long gy_extent = grid_extent(spec.ey, n, spec.periodic);

  std::vector<long long> ids(std::size_t(n) * n * n * layout.nel());
  std::size_t idx = 0;
  for (int e = 0; e < layout.nel(); ++e) {
    auto [egx, egy, egz] = layout.global_coords(e);
    for (int k = 0; k < n; ++k) {
      long long pz = 1LL * egz * (n - 1) + k;
      if (spec.periodic) pz %= 1LL * spec.ez * (n - 1);
      for (int j = 0; j < n; ++j) {
        long long py = 1LL * egy * (n - 1) + j;
        if (spec.periodic) py %= 1LL * spec.ey * (n - 1);
        for (int i = 0; i < n; ++i) {
          long long px = 1LL * egx * (n - 1) + i;
          if (spec.periodic) px %= 1LL * spec.ex * (n - 1);
          ids[idx++] = px + gx_extent * (py + gy_extent * pz);
        }
      }
    }
  }
  return ids;
}

std::vector<long long> global_gll_keys(const ElementLayout& layout) {
  const int n = layout.spec().n;
  const std::size_t epts = std::size_t(n) * n * n;
  std::vector<long long> keys(epts * layout.nel());
  std::size_t idx = 0;
  for (int e = 0; e < layout.nel(); ++e) {
    const long long base = layout.gid_of(e) * (long long)(epts);
    for (std::size_t p = 0; p < epts; ++p) keys[idx++] = base + (long long)(p);
  }
  return keys;
}

}  // namespace cmtbone::mesh

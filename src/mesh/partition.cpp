#include "mesh/partition.hpp"

namespace cmtbone::mesh {

void BoxSpec::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("BoxSpec: " + msg); };
  if (n < 2) fail("n must be >= 2");
  if (ex < 1 || ey < 1 || ez < 1) fail("element grid must be positive");
  if (px < 1 || py < 1 || pz < 1) fail("processor grid must be positive");
  if (ex < px || ey < py || ez < pz) {
    fail("each direction needs at least one element per processor");
  }
}

std::array<int, 3> BoxSpec::default_proc_grid(int nranks) {
  // Factor nranks into three near-equal factors: pick the largest factor
  // <= cbrt for pz, then split the remainder near its square root.
  std::array<int, 3> best = {nranks, 1, 1};
  for (int a = 1; a * a * a <= nranks; ++a) {
    if (nranks % a != 0) continue;
    int rem = nranks / a;
    for (int b = a; b * b <= rem; ++b) {
      if (rem % b != 0) continue;
      best = {rem / b, b, a};  // px >= py >= pz
    }
  }
  return best;
}

BoxSpec make_box_spec(int n, const std::array<int, 3>& elements,
                      const std::array<int, 3>& procs, bool periodic,
                      int nranks) {
  BoxSpec spec;
  spec.n = n;
  spec.ex = elements[0];
  spec.ey = elements[1];
  spec.ez = elements[2];
  spec.periodic = periodic;
  const std::array<int, 3> grid =
      procs[0] > 0 ? procs : BoxSpec::default_proc_grid(nranks);
  spec.px = grid[0];
  spec.py = grid[1];
  spec.pz = grid[2];
  if (spec.nranks() != nranks) {
    throw std::invalid_argument(
        "BoxSpec: processor grid does not match communicator size");
  }
  spec.validate();
  return spec;
}

void Partition::split_range(int extent, int procs, int coord, int* lo, int* hi) {
  int base = extent / procs;
  int extra = extent % procs;
  // The first `extra` processors get base+1 layers.
  if (coord < extra) {
    *lo = coord * (base + 1);
    *hi = *lo + base + 1;
  } else {
    *lo = extra * (base + 1) + (coord - extra) * base;
    *hi = *lo + base;
  }
}

Partition::Partition(const BoxSpec& spec, int rank) : spec_(spec), rank_(rank) {
  spec_.validate();
  if (rank < 0 || rank >= spec.nranks()) {
    throw std::invalid_argument("Partition: rank out of range");
  }
  cx_ = rank % spec.px;
  cy_ = (rank / spec.px) % spec.py;
  cz_ = rank / (spec.px * spec.py);
  split_range(spec.ex, spec.px, cx_, &x0_, &x1_);
  split_range(spec.ey, spec.py, cy_, &y0_, &y1_);
  split_range(spec.ez, spec.pz, cz_, &z0_, &z1_);
}

int Partition::neighbor_rank(int dx, int dy, int dz) const {
  int nx = cx_ + dx, ny = cy_ + dy, nz = cz_ + dz;
  if (spec_.periodic) {
    nx = (nx + spec_.px) % spec_.px;
    ny = (ny + spec_.py) % spec_.py;
    nz = (nz + spec_.pz) % spec_.pz;
  } else if (nx < 0 || nx >= spec_.px || ny < 0 || ny >= spec_.py || nz < 0 ||
             nz >= spec_.pz) {
    return -1;
  }
  return rank_of(spec_, nx, ny, nz);
}

}  // namespace cmtbone::mesh

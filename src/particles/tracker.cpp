#include "particles/tracker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "prof/callprof.hpp"
#include "sem/lgl.hpp"
#include "util/rng.hpp"

namespace cmtbone::particles {

Tracker::Tracker(comm::Comm& comm, const mesh::Partition& part,
                 const sem::Operators& ops)
    : comm_(&comm),
      layout_(mesh::ElementLayout::block(part.spec(), part.rank())),
      ops_(&ops),
      router_(comm) {
  const mesh::BoxSpec& spec = part.spec();
  h_ = {1.0 / spec.ex, 1.0 / spec.ey, 1.0 / spec.ez};
  bary_ = sem::barycentric_weights(ops.rule.nodes);
  wx_.resize(ops.n);
  wy_.resize(ops.n);
  wz_.resize(ops.n);
}

void Tracker::seed_random(int count_per_rank, std::uint64_t seed) {
  util::SplitMix64 rng(util::rank_seed(seed, comm_->rank()));
  particles_.clear();
  particles_.reserve(count_per_rank);
  // Seed inside this rank's *block* extent (the historical behavior; under
  // a non-block layout call migrate() afterwards to restore ownership).
  const mesh::Partition part(layout_.spec(), layout_.rank());
  const double x0 = part.x0() * h_[0], x1 = part.x1() * h_[0];
  const double y0 = part.y0() * h_[1], y1 = part.y1() * h_[1];
  const double z0 = part.z0() * h_[2], z1 = part.z1() * h_[2];
  for (int i = 0; i < count_per_rank; ++i) {
    Particle p;
    p.id = static_cast<long long>(comm_->rank()) * 1000000 + i;
    p.x = rng.uniform(x0, x1);
    p.y = rng.uniform(y0, y1);
    p.z = rng.uniform(z0, z1);
    particles_.push_back(p);
  }
}

void Tracker::adopt_global(std::span<const Particle> all) {
  particles_.clear();
  for (const Particle& p : all) {
    if (owns(p.x, p.y, p.z)) particles_.push_back(p);
  }
}

std::array<int, 3> Tracker::element_of(double x, double y, double z) const {
  const mesh::BoxSpec& spec = layout_.spec();
  auto clampi = [](int v, int hi) { return v < 0 ? 0 : (v >= hi ? hi - 1 : v); };
  return {clampi(int(x / h_[0]), spec.ex), clampi(int(y / h_[1]), spec.ey),
          clampi(int(z / h_[2]), spec.ez)};
}

bool Tracker::owns(double x, double y, double z) const {
  auto e = element_of(x, y, z);
  return layout_.owns(e[0], e[1], e[2]);
}

int Tracker::owner_of(double x, double y, double z) const {
  auto e = element_of(x, y, z);
  return layout_.owner_of(e[0], e[1], e[2]);
}

std::vector<int> Tracker::count_per_element() const {
  std::vector<int> count(std::size_t(layout_.nel()), 0);
  for (const Particle& p : particles_) {
    auto e = element_of(p.x, p.y, p.z);
    const int le = layout_.local_index(e[0], e[1], e[2]);
    if (le >= 0) ++count[std::size_t(le)];
  }
  return count;
}

void Tracker::advance(const std::array<double, 3>& velocity, double dt) {
  prof::ScopedRegion region("particle_advance");
  for (Particle& p : particles_) {
    p.x = wrap01(p.x + velocity[0] * dt);
    p.y = wrap01(p.y + velocity[1] * dt);
    p.z = wrap01(p.z + velocity[2] * dt);
  }
}

double Tracker::interpolate(const double* field, double x, double y,
                            double z) const {
  assert(owns(x, y, z));
  const int n = ops_->n;
  auto e = element_of(x, y, z);

  // Reference coordinates in [-1, 1] within the owning element.
  const double r = 2.0 * (x / h_[0] - e[0]) - 1.0;
  const double s = 2.0 * (y / h_[1] - e[1]) - 1.0;
  const double t = 2.0 * (z / h_[2] - e[2]) - 1.0;

  // Barycentric Lagrange weights per axis: w_i = b_i/(r - x_i), normalized;
  // exact node hits short-circuit to a delta.
  auto basis = [&](double coord, std::vector<double>& w) {
    const std::vector<double>& nodes = ops_->rule.nodes;
    for (int i = 0; i < n; ++i) {
      if (coord == nodes[i]) {
        std::fill(w.begin(), w.end(), 0.0);
        w[i] = 1.0;
        return;
      }
    }
    double denom = 0.0;
    for (int i = 0; i < n; ++i) {
      w[i] = bary_[i] / (coord - nodes[i]);
      denom += w[i];
    }
    for (int i = 0; i < n; ++i) w[i] /= denom;
  };
  basis(r, wx_);
  basis(s, wy_);
  basis(t, wz_);

  const int le = layout_.local_index(e[0], e[1], e[2]);
  const double* ue = field + std::size_t(le) * n * n * n;
  double value = 0.0;
  for (int k = 0; k < n; ++k) {
    double slab = 0.0;
    for (int j = 0; j < n; ++j) {
      double row = 0.0;
      const double* urow = ue + std::size_t(n) * (j + std::size_t(n) * k);
      for (int i = 0; i < n; ++i) row += wx_[i] * urow[i];
      slab += wy_[j] * row;
    }
    value += wz_[k] * slab;
  }
  return value;
}

void Tracker::deposit(double* field, double x, double y, double z,
                      double strength) const {
  assert(owns(x, y, z));
  const int n = ops_->n;
  auto e = element_of(x, y, z);
  const double r = 2.0 * (x / h_[0] - e[0]) - 1.0;
  const double s = 2.0 * (y / h_[1] - e[1]) - 1.0;
  const double t = 2.0 * (z / h_[2] - e[2]) - 1.0;

  auto basis = [&](double coord, std::vector<double>& w) {
    const std::vector<double>& nodes = ops_->rule.nodes;
    for (int i = 0; i < n; ++i) {
      if (coord == nodes[i]) {
        std::fill(w.begin(), w.end(), 0.0);
        w[i] = 1.0;
        return;
      }
    }
    double denom = 0.0;
    for (int i = 0; i < n; ++i) {
      w[i] = bary_[i] / (coord - nodes[i]);
      denom += w[i];
    }
    for (int i = 0; i < n; ++i) w[i] /= denom;
  };
  basis(r, wx_);
  basis(s, wy_);
  basis(t, wz_);

  const int le = layout_.local_index(e[0], e[1], e[2]);
  double* ue = field + std::size_t(le) * n * n * n;
  for (int k = 0; k < n; ++k) {
    const double wk = wz_[k] * strength;
    for (int j = 0; j < n; ++j) {
      const double wjk = wy_[j] * wk;
      double* row = ue + std::size_t(n) * (j + std::size_t(n) * k);
      for (int i = 0; i < n; ++i) row[i] += wx_[i] * wjk;
    }
  }
}

void Tracker::deposit_all(double* field, double strength_per_particle) const {
  prof::ScopedRegion region("particle_deposit");
  for (const Particle& p : particles_) {
    deposit(field, p.x, p.y, p.z, strength_per_particle);
  }
}

void Tracker::advance_interpolated(const double* ux, const double* uy,
                                   const double* uz, double dt) {
  prof::ScopedRegion region("particle_advance");
  for (Particle& p : particles_) {
    const double vx = interpolate(ux, p.x, p.y, p.z);
    const double vy = interpolate(uy, p.x, p.y, p.z);
    const double vz = interpolate(uz, p.x, p.y, p.z);
    p.x = wrap01(p.x + vx * dt);
    p.y = wrap01(p.y + vy * dt);
    p.z = wrap01(p.z + vz * dt);
  }
}

void Tracker::migrate() {
  prof::ScopedRegion region("particle_migrate");
  std::vector<Particle> leaving, staying;
  std::vector<int> dest;
  for (const Particle& p : particles_) {
    if (owns(p.x, p.y, p.z)) {
      staying.push_back(p);
    } else {
      leaving.push_back(p);
      dest.push_back(owner_of(p.x, p.y, p.z));
    }
  }
  last_migrated_ = leaving.size();

  std::vector<Particle> arrived = router_.route_records(
      std::span<const Particle>(leaving), dest);
  particles_ = std::move(staying);
  particles_.insert(particles_.end(), arrived.begin(), arrived.end());
  // Canonical local order (ids are globally unique): deposit accumulation
  // per element becomes a function of the particle set alone.
  std::sort(particles_.begin(), particles_.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
}

long long Tracker::total_count() const {
  return comm_->allreduce_one(static_cast<long long>(particles_.size()),
                              comm::ReduceOp::kSum);
}

}  // namespace cmtbone::particles

#pragma once
// Lagrangian point-particle tracking — the paper's named next CMT-nek
// capability ("In the following years complete multiphase coupling, shock
// capturing, lagrangian point particle tracking, and real gas models will
// be added", §III-A).
//
// Particles live on the rank that owns the element containing them. Each
// step they advance along a velocity — either a uniform carrier velocity or
// one interpolated from the spectral-element fields via tensor-product
// Lagrange evaluation — and particles that cross a partition boundary
// migrate to their new owner through the crystal router, the same transport
// CMT-nek uses for its particle swap.

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "gs/crystal.hpp"
#include "mesh/layout.hpp"
#include "mesh/partition.hpp"
#include "sem/operators.hpp"

namespace cmtbone::particles {

/// One particle's migration record (also the on-wire layout).
struct Particle {
  long long id = 0;
  double x = 0, y = 0, z = 0;
};

class Tracker {
 public:
  /// Collective over `comm`; the partition must match the communicator.
  /// Ownership starts as the block layout of `part`.
  Tracker(comm::Comm& comm, const mesh::Partition& part,
          const sem::Operators& ops);

  /// Adopt a new element layout (the load balancer's relayout). Particles
  /// keep their positions; call migrate() afterwards to ship each one to
  /// its element's new owner. Collective only through that migrate().
  void set_layout(const mesh::ElementLayout& layout) { layout_ = layout; }
  const mesh::ElementLayout& layout() const { return layout_; }

  /// Seed `count_per_rank` particles uniformly inside this rank's block.
  /// Ids are globally unique and deterministic in (seed, rank).
  void seed_random(int count_per_rank, std::uint64_t seed);

  /// Replace the local set with the owned subset of a replicated global
  /// particle list (scenario generators build the full list identically on
  /// every rank).
  void adopt_global(std::span<const Particle> all);

  /// Advance every local particle by dt along a uniform velocity, with
  /// periodic wrap. Call migrate() afterwards to restore ownership.
  void advance(const std::array<double, 3>& velocity, double dt);

  /// Advance along a velocity interpolated from three spectral-element
  /// fields (each (n,n,n,nel) on this rank's elements). Forward Euler in
  /// time; particles must be locally owned when called.
  void advance_interpolated(const double* ux, const double* uy,
                            const double* uz, double dt);

  /// Ship every particle that left this rank's elements to its owner via
  /// the crystal router, then sort the local set by particle id. Collective.
  /// The sort makes the deposit accumulation order per element canonical —
  /// a function of the particle set alone, not of arrival history — which
  /// keeps the coupling source term bit-identical across relayouts.
  void migrate();

  /// Interpolate one scalar field at a (locally owned) position.
  double interpolate(const double* field, double x, double y, double z) const;

  /// Deposit `strength` from a (locally owned) position onto the owning
  /// element's nodes — the transpose of interpolation, the building block
  /// of two-way multiphase coupling (the paper's source term R). The
  /// deposit is partition-of-unity: the nodal weights sum to 1, so summing
  /// field * 1 recovers the total deposited strength under the
  /// interpolation pairing.
  void deposit(double* field, double x, double y, double z,
               double strength) const;

  /// Deposit every local particle with equal strength (a uniform particle
  /// load) onto `field`.
  void deposit_all(double* field, double strength_per_particle) const;

  /// True if (x,y,z) lies in an element this rank owns.
  bool owns(double x, double y, double z) const;
  /// Rank owning position (x,y,z).
  int owner_of(double x, double y, double z) const;

  /// Resident particles per local element (cost-model input).
  std::vector<int> count_per_element() const;

  std::size_t local_count() const { return particles_.size(); }
  const std::vector<Particle>& particles() const { return particles_; }
  std::vector<Particle>& mutable_particles() { return particles_; }

  /// Total particles across ranks (collective).
  long long total_count() const;

  /// Particles shipped by the last migrate() call on this rank.
  std::size_t last_migrated() const { return last_migrated_; }

 private:
  std::array<int, 3> element_of(double x, double y, double z) const;
  static double wrap01(double v) {
    v -= std::floor(v);
    // floor(1.0 - eps) edge: wrap exact 1.0 back to 0.
    return v >= 1.0 ? v - 1.0 : v;
  }

  comm::Comm* comm_;
  mesh::ElementLayout layout_;
  const sem::Operators* ops_;
  gs::CrystalRouter router_;
  std::array<double, 3> h_;
  std::vector<Particle> particles_;
  std::size_t last_migrated_ = 0;

  // Scratch for barycentric Lagrange evaluation (one weight set per axis).
  mutable std::vector<double> wx_, wy_, wz_;
  std::vector<double> bary_;  // barycentric weights of the GLL nodes
};

}  // namespace cmtbone::particles

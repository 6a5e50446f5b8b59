#pragma once
// CMT-bone run configuration.
//
// The paper's key application parameters (§IV): "degree of the polynomial
// N-1, number of elements per processor Nel, and the number of MPI
// processes P". The config mirrors the Fig. 7 setup block: a global element
// grid, a processor grid, and N gridpoints per element per direction.

#include <array>
#include <string>

#include "balance/cost_model.hpp"
#include "gs/gather_scatter.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "mesh/geometry.hpp"

namespace cmtbone::core {

/// What the conserved fields mean physically.
enum class Physics {
  /// The mini-app proxy: five conserved fields (mass, three momentum
  /// components, energy) all advected linearly — the source terms are zero
  /// and the flux is linear, exactly the abstraction the paper describes
  /// ("the current version of CMT-bone abstracts CMT-nek behavior as
  /// matrix-multiplication and nearest neighbor surface data exchanges").
  kProxyAdvection,
  /// One scalar field, genuine DG-SEM linear advection. Has an analytic
  /// solution (a translate of the initial condition) — the validation path.
  kAdvection,
  /// Scalar Burgers: flux 0.5 * a_axis * u^2 with a = Config::velocity, the
  /// simplest genuinely nonlinear hyperbolic system (wavespeed follows the
  /// solution). Smooth pre-shock solutions are analytic via characteristics.
  kBurgers,
  /// Compressible Euler with Rusanov numerical flux (the physics CMT-nek's
  /// explicit compressible solver steps, minus multiphase coupling).
  kEuler,
};

const char* physics_name(Physics p);
/// Parse a physics_name() string; returns false on an unknown name.
bool physics_from_name(const std::string& name, Physics* out);

/// Which Euler scenario the system's initial condition / exact solution
/// describe (the flux model is the same either way).
enum class EulerCase {
  /// Smooth density wave riding a uniform (velocity, pressure) background —
  /// an entropy wave, whose exact solution is the translated initial
  /// density. The historical default_ic.
  kSmoothWave,
  /// Sod's shock tube along x: (rho, p) = (1, 1) left of mid-domain,
  /// (0.125, 0.1) right, fluid at rest. Exact solution from the 1-D Riemann
  /// problem (rarefaction / contact / shock). Use with periodic = false.
  kSod,
};

const char* euler_case_name(EulerCase c);

/// Explicit time integrators. CMT-nek's explicit compressible solver uses a
/// three-stage SSP Runge-Kutta; the others support temporal-order studies
/// and the cheap-stepping ablation.
enum class TimeIntegrator {
  kForwardEuler,  // 1 stage, order 1
  kRk2Ssp,        // Heun / SSP(2,2), order 2
  kRk3Ssp,        // Shu-Osher SSP(3,3), order 3 (the CMT-nek default)
  kRk4,           // classic RK4, order 4
};

const char* integrator_name(TimeIntegrator t);
/// Stages per step, which is also the integrator's order of accuracy.
int integrator_stages(TimeIntegrator t);

/// The nearest-neighbor surface exchange has one backend: the plan of
/// mesh::FaceExchange, one message per (face direction, partner rank). The
/// enum and Config::face_backend remain only as API that existing programs
/// assign; the Driver reads neither.
enum class FaceBackend { kDirect };

struct Config {
  int n = 10;                  // GLL points per direction (Fig. 7 uses 10)
  int ex = 8, ey = 8, ez = 8;  // global element grid
  int px = 0, py = 0, pz = 0;  // processor grid; 0 = derive from comm size
  bool periodic = true;

  /// Physical geometry: one coordinate map per axis (mesh/geometry.hpp).
  /// The default is the historical unit box split uniformly; non-uniform
  /// maps (geometric / tanh stretching) and per-axis lengths (high-aspect
  /// boxes) feed per-element extents into the SEM geometric factors and the
  /// CFL dt. Topology (adjacency, partition, exchange plans) is unchanged.
  std::array<mesh::AxisMap, 3> mesh_map = {};

  bool uniform_mesh() const {
    return mesh_map[0].uniform() && mesh_map[1].uniform() &&
           mesh_map[2].uniform();
  }
  std::array<double, 3> domain_length() const {
    return {mesh_map[0].length, mesh_map[1].length, mesh_map[2].length};
  }

  Physics physics = Physics::kProxyAdvection;
  FaceBackend face_backend = FaceBackend::kDirect;  // the only value; unread
  TimeIntegrator integrator = TimeIntegrator::kRk3Ssp;
  kernels::GradVariant variant = kernels::GradVariant::kDispatch;
  gs::Method gs_method = gs::Method::kPairwise;

  /// The contraction backend of this run's derivatives and dealias round
  /// trip (scalar / simd-fma / batched, see kernels/dispatch.hpp). It
  /// belongs to the Driver built from this config alone: other Drivers in
  /// the same process keep their own. Every backend except simd-fma gives
  /// the same bits as scalar.
  kernels::Backend kernel_backend = kernels::kDefaultBackend;

  /// Overlap the nearest-neighbor surface exchange with element compute.
  /// Every RHS begins the face exchange, runs a window of element work
  /// (volume, dealias, particle source, and the surface term of elements
  /// whose faces are already valid), finishes the exchange, and then runs
  /// the remaining surface terms. With overlap the window runs while the
  /// halo messages fly; without it the window runs after finish. The
  /// floating-point operation order per point is the same, so results are
  /// bit-identical either way.
  bool overlap = false;

  /// Intra-rank element parallelism: how many threads (including the rank
  /// thread itself) advance this rank's element loops — the volume flux
  /// divergence, the surface numerical flux, and face pack/unpack — through
  /// the shared parallel::Pool. Elements are independent, so results are
  /// bit-identical for every value. 0 resolves from the
  /// CMTBONE_THREADS_PER_RANK environment variable (default 1 = serial,
  /// exactly the pre-pool code path).
  int threads_per_rank = 0;

  /// Apply direct-stiffness averaging (gs_op over shared GLL points, then
  /// divide by multiplicity) after each step — the gs_op_ kernel of Fig. 4.
  bool use_dssum = true;
  /// Run the dealias round-trip on the energy field each RHS evaluation
  /// (the "mapped to a finer mesh and later mapped back" path of §V).
  bool dealias = false;

  /// Lagrangian tracer particles per rank (0 = off). Particles advect with
  /// the carrier velocity (proxy/advection) or the interpolated flow field
  /// (Euler) and migrate between ranks through the crystal router — the
  /// point-particle capability the paper schedules for CMT-nek (§III-A).
  int particles_per_rank = 0;
  /// Two-way coupling strength: when nonzero, every particle deposits this
  /// much momentum-source per RHS evaluation onto its owning element (the
  /// conservation-law source term R of paper Eq. 1, which current CMT-bone
  /// sets to zero; "complete multiphase coupling" is the §III-A roadmap).
  double particle_coupling = 0.0;

  /// Dynamic load balancing (balance/): every `balance_interval` steps the
  /// driver assembles measured per-element costs, runs the replicated
  /// greedy repartitioner, and migrates elements (fields + resident
  /// particles) to the proposed owners. 0 = static partition. A nonzero
  /// interval implies `ordered_gs` — the layout-invariant reduction order
  /// is what makes balanced runs bit-identical to static ordered runs.
  int balance_interval = 0;
  /// Elements migrated per rebalance epoch, at most (bounded diffusion).
  int balance_max_moves = 8;
  /// Rebalance only when max/mean cost load exceeds this factor.
  double balance_threshold = 1.05;
  /// Cost attribution: measured EWMA rates, or the deterministic
  /// particle-count surrogate (see balance/cost_model.hpp, whose defaults
  /// set the EWMA weight and the per-particle cost).
  balance::CostMode balance_cost_mode = balance::CostMode::kMeasured;

  /// Use ordered (key-canonical) gather-scatter folds even without dynamic
  /// balancing — the static reference configuration the balanced-vs-static
  /// bit-identity tests compare against. Changes dssum's reduction order
  /// (still deterministic, different bits from the default methods).
  bool ordered_gs = false;

  double cfl = 0.3;
  double fixed_dt = 0.0;  // > 0 overrides the CFL computation
  std::array<double, 3> velocity = {1.0, 0.5, 0.25};  // advection speed
  double gamma = 1.4;                                  // Euler only
  EulerCase euler_case = EulerCase::kSmoothWave;       // Euler scenario

  int nfields() const {
    return physics == Physics::kAdvection || physics == Physics::kBurgers
               ? 1
               : 5;
  }
};

}  // namespace cmtbone::core

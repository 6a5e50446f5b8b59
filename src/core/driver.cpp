#include "core/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "balance/rebalancer.hpp"
#include "core/element_rhs.hpp"
#include "io/checkpoint.hpp"
#include "io/vtk.hpp"
#include "kernels/gradient.hpp"
#include "kernels/tensor.hpp"
#include "kernels/vecops.hpp"
#include "mesh/face_numbering.hpp"
#include "mesh/numbering.hpp"
#include "parallel/parallel.hpp"
#include "prof/callprof.hpp"
#include "prof/timer.hpp"

namespace cmtbone::core {

const char* physics_name(Physics p) {
  switch (p) {
    case Physics::kProxyAdvection: return "proxy-advection";
    case Physics::kAdvection: return "advection";
    case Physics::kBurgers: return "burgers";
    case Physics::kEuler: return "euler";
  }
  return "?";
}

bool physics_from_name(const std::string& name, Physics* out) {
  if (name == "proxy") {  // CLI shorthand for the mini-app default
    *out = Physics::kProxyAdvection;
    return true;
  }
  for (Physics p : {Physics::kProxyAdvection, Physics::kAdvection,
                    Physics::kBurgers, Physics::kEuler}) {
    if (name == physics_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

const char* euler_case_name(EulerCase c) {
  switch (c) {
    case EulerCase::kSmoothWave: return "smooth-wave";
    case EulerCase::kSod: return "sod";
  }
  return "?";
}

const char* integrator_name(TimeIntegrator t) {
  switch (t) {
    case TimeIntegrator::kForwardEuler: return "forward-euler";
    case TimeIntegrator::kRk2Ssp: return "ssp-rk2";
    case TimeIntegrator::kRk3Ssp: return "ssp-rk3";
    case TimeIntegrator::kRk4: return "rk4";
  }
  return "?";
}

int integrator_stages(TimeIntegrator t) {
  switch (t) {
    case TimeIntegrator::kForwardEuler: return 1;
    case TimeIntegrator::kRk2Ssp: return 2;
    case TimeIntegrator::kRk3Ssp: return 3;
    case TimeIntegrator::kRk4: return 4;
  }
  return 0;
}

const char* face_backend_name(FaceBackend b) {
  switch (b) {
    case FaceBackend::kDirect: return "direct";
    case FaceBackend::kGatherScatter: return "gather-scatter";
  }
  return "?";
}

int integrator_order(TimeIntegrator t) {
  switch (t) {
    case TimeIntegrator::kForwardEuler: return 1;
    case TimeIntegrator::kRk2Ssp: return 2;
    case TimeIntegrator::kRk3Ssp: return 3;
    case TimeIntegrator::kRk4: return 4;
  }
  return 0;
}

namespace {
mesh::BoxSpec make_spec(const Config& cfg, int nranks) {
  mesh::BoxSpec spec;
  spec.n = cfg.n;
  spec.ex = cfg.ex;
  spec.ey = cfg.ey;
  spec.ez = cfg.ez;
  spec.periodic = cfg.periodic;
  if (cfg.px > 0) {
    spec.px = cfg.px;
    spec.py = cfg.py;
    spec.pz = cfg.pz;
  } else {
    auto grid = mesh::BoxSpec::default_proc_grid(nranks);
    spec.px = grid[0];
    spec.py = grid[1];
    spec.pz = grid[2];
  }
  if (spec.nranks() != nranks) {
    throw std::invalid_argument(
        "Driver: processor grid does not match communicator size");
  }
  spec.validate();
  return spec;
}
}  // namespace

Driver::Driver(comm::Comm& comm, const Config& config)
    : comm_(&comm),
      config_(config),
      system_(make_system(config)),
      spec_(make_spec(config, comm.size())),
      part_(spec_, comm.rank()),
      layout_(mesh::ElementLayout::block(spec_, comm.rank())),
      ops_(sem::Operators::build(config.n)),
      threads_(parallel::resolve_threads(config.threads_per_rank)) {
  if (config_.kernel_backend) {
    kernels::set_forced_backend(*config_.kernel_backend);
  }

  balance::CostModelConfig cm;
  cm.mode = config_.balance_cost_mode;
  cm.ewma = config_.balance_ewma;
  cm.particle_weight = config_.balance_particle_weight;
  cost_model_ = balance::CostModel(cm);

  // Per-axis geometry. Uniform maps keep the historical constant-extent
  // fast path (h_ only); stretched maps additionally tabulate per-slab
  // widths and left edges.
  uniform_mesh_ = config_.uniform_mesh();
  h_ = {config_.mesh_map[0].length / spec_.ex,
        config_.mesh_map[1].length / spec_.ey,
        config_.mesh_map[2].length / spec_.ez};
  if (!uniform_mesh_) {
    const int counts[3] = {spec_.ex, spec_.ey, spec_.ez};
    for (int axis = 0; axis < 3; ++axis) {
      widths_[axis] = mesh::axis_widths(config_.mesh_map[axis], counts[axis]);
      std::vector<double> bp =
          mesh::axis_breakpoints(config_.mesh_map[axis], counts[axis]);
      bp.pop_back();
      offsets_[axis] = std::move(bp);
    }
  }

  rebuild_topology();

  if (config_.particles_per_rank > 0) {
    // The tracker's locate/interpolate machinery assumes the historical
    // uniform unit box; stretched or scaled scenarios run grid-only.
    if (!uniform_mesh_ || config_.mesh_map[0].length != 1.0 ||
        config_.mesh_map[1].length != 1.0 ||
        config_.mesh_map[2].length != 1.0) {
      throw std::invalid_argument(
          "Driver: particles require the uniform unit-box mesh");
    }
    tracker_ = std::make_unique<particles::Tracker>(comm, part_, ops_);
    tracker_->seed_random(config_.particles_per_rank, config_.particle_seed);
  }
}

void Driver::rebuild_topology() {
  const bool ordered = ordered_gs_enabled();

  // For the block layout the generalized plans coincide exactly with the
  // static Partition plans, so this path is bit-identical to the historical
  // Partition-based construction.
  exchange_ = std::make_unique<mesh::FaceExchange>(*comm_, layout_);
  exchange_->set_threads(threads_);

  {
    prof::ScopedRegion region("gs_setup");
    std::vector<long long> ids = mesh::global_gll_ids(layout_);
    std::vector<long long> keys;  // empty keys build an unordered handle
    if (ordered) keys = mesh::global_gll_keys(layout_);
    gs_ = std::make_unique<gs::GatherScatter>(
        *comm_, std::span<const long long>(ids), config_.gs_method,
        std::span<const long long>(keys));
  }

  const int n = config_.n;
  const int nel = layout_.nel();
  pts_ = std::size_t(n) * n * n * nel;
  const int nf = nfields();

  all_elems_.resize(nel);
  std::iota(all_elems_.begin(), all_elems_.end(), 0);
  // Which surface terms can run inside the exchange window. The direct
  // backend's begin() performs every local face copy, so elements with no
  // remote-paired face are already valid. The gs backend's sum also
  // carries locally-paired faces, so nothing is valid before finish().
  if (config_.face_backend == FaceBackend::kDirect) {
    mesh::ElementClasses classes = mesh::classify_interior_boundary(layout_);
    early_elems_ = std::move(classes.interior);
    late_elems_ = std::move(classes.boundary);
  } else {
    early_elems_.clear();
    late_elems_ = all_elems_;
  }

  // Per-local-element extents under a stretched map (layout-dependent, so
  // rebuilt here). Uniform meshes keep elem_h_ empty and read h_.
  elem_h_.clear();
  if (!uniform_mesh_) {
    elem_h_.resize(std::size_t(nel));
    for (int e = 0; e < nel; ++e) {
      const auto g = layout_.global_coords(e);
      elem_h_[std::size_t(e)] = {widths_[0][std::size_t(g[0])],
                                 widths_[1][std::size_t(g[1])],
                                 widths_[2][std::size_t(g[2])]};
    }
  }

  // u_ carries state across a rebalance: migrate_fields() resized it to the
  // new layout before this runs. Everything else is per-step scratch.
  auto alloc_fields = [&](std::vector<std::vector<double>>& v) {
    v.assign(nf, std::vector<double>(pts_, 0.0));
  };
  if (u_.empty()) alloc_fields(u_);
  alloc_fields(u1_);
  alloc_fields(u2_);
  alloc_fields(rhs_);
  if (config_.particles_per_rank > 0) {
    for (auto& buf : carrier_) buf.assign(pts_, 0.0);
  }
  myfaces_.assign(mesh::face_array_size(n, nel) * nf, 0.0);
  nbrfaces_.assign(mesh::face_array_size(n, nel) * nf, 0.0);

  if (config_.dealias) {
    const int m = ops_.m;
    dealias_fine_.assign(std::size_t(m) * m * m, 0.0);
    dealias_back_.assign(std::size_t(n) * n * n, 0.0);
    dealias_work_.assign(kernels::tensor_work_size(std::max(m, n), std::max(m, n)),
                         0.0);
  }

  // Direct-stiffness multiplicity: gs_op(add) over a field of ones counts
  // the copies of each global point.
  inv_multiplicity_.assign(pts_, 1.0);
  gs_->exec(std::span<double>(inv_multiplicity_), gs::ReduceOp::kSum);
  for (double& v : inv_multiplicity_) v = 1.0 / v;

  if (config_.face_backend == FaceBackend::kGatherScatter) {
    prof::ScopedRegion region("gs_setup (faces)");
    std::vector<long long> fids = mesh::face_point_gids(layout_);
    std::vector<long long> fkeys;
    if (ordered) fkeys = mesh::face_point_keys(layout_);
    face_gs_ = std::make_unique<gs::GatherScatter>(
        *comm_, std::span<const long long>(fids), config_.gs_method,
        std::span<const long long>(fkeys));
    // Interior mask from the multiplicity trick: interior face points have
    // exactly two copies, physical-boundary points one.
    std::vector<double> ones(fids.size(), 1.0);
    face_gs_->exec(std::span<double>(ones), gs::ReduceOp::kSum);
    face_interior_.resize(ones.size());
    for (std::size_t s = 0; s < ones.size(); ++s) {
      face_interior_[s] = ones[s] > 1.5 ? 1 : 0;
    }
  }
}

std::array<double, 3> Driver::node_coords(int e, int i, int j, int k) const {
  auto g = layout_.global_coords(e);
  const std::vector<double>& r = ops_.rule.nodes;
  if (uniform_mesh_) {
    return {(g[0] + 0.5 * (r[i] + 1.0)) * h_[0],
            (g[1] + 0.5 * (r[j] + 1.0)) * h_[1],
            (g[2] + 0.5 * (r[k] + 1.0)) * h_[2]};
  }
  const std::array<double, 3>& eh = elem_h_[std::size_t(e)];
  return {offsets_[0][std::size_t(g[0])] + 0.5 * (r[i] + 1.0) * eh[0],
          offsets_[1][std::size_t(g[1])] + 0.5 * (r[j] + 1.0) * eh[1],
          offsets_[2][std::size_t(g[2])] + 0.5 * (r[k] + 1.0) * eh[2]};
}

FieldFunction Driver::default_ic() const {
  return system_->initial_condition();
}

void Driver::initialize(const FieldFunction& ic) {
  const int n = config_.n;
  for (int f = 0; f < nfields(); ++f) {
    std::size_t idx = 0;
    for (int e = 0; e < layout_.nel(); ++e) {
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < n; ++i) {
            auto c = node_coords(e, i, j, k);
            u_[f][idx++] = ic(c[0], c[1], c[2], f);
          }
        }
      }
    }
  }
  time_ = 0.0;
  steps_ = 0;
}

double Driver::compute_dt() {
  prof::ScopedRegion region("compute_dt");
  // Nonlinear systems validate the state at every step boundary; a bad rank
  // reports through the dt reduction (below) or, on the fixed-dt path, a
  // dedicated flag reduction, so the throw is collective either way.
  std::string why;
  bool ok = true;
  const double* uptr[kMaxFields];
  const int nf = nfields();
  for (int f = 0; f < nf; ++f) uptr[f] = u_[f].data();
  if (system_->needs_admissibility_check()) {
    ok = system_->admissible(uptr, 0, pts_, &why);
  }
  if (config_.fixed_dt > 0.0) {
    if (system_->needs_admissibility_check()) {
      const double bad =
          comm_->allreduce_one(ok ? 0.0 : 1.0, comm::ReduceOp::kMax);
      if (bad > 0.0) throw SolverDiverged(steps_, comm_->rank(), why);
    }
    return config_.fixed_dt;
  }
  // Smallest GLL node spacing per direction, scaled to each element's
  // physical extent. (For uniform meshes min_e dx/lambda_e equals the
  // historical dx / max_e lambda_e bit for bit — division by the larger
  // wavespeed is the minimum — so this per-element form is not a behavior
  // change there; it exists for stretched meshes, where a single per-axis
  // h would let the thinnest layer violate the CFL bound.)
  const std::vector<double>& r = ops_.rule.nodes;
  const double dr_min = r[1] - r[0];
  const std::size_t epts =
      std::size_t(config_.n) * config_.n * config_.n;
  double dt = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    for (int e = 0; e < layout_.nel(); ++e) {
      const std::size_t base = std::size_t(e) * epts;
      const double lambda =
          system_->max_wavespeed(uptr, base, base + epts, axis);
      const double dx = 0.5 * dr_min * elem_h(e, axis);
      if (lambda > 0.0) dt = std::min(dt, dx / lambda);
    }
  }
  if (!ok) dt = -1.0;  // sentinel: wins the min, every rank sees it
  // The per-step vector reduction of §VI.
  dt = comm_->allreduce_one(dt, comm::ReduceOp::kMin);
  if (dt < 0.0) throw SolverDiverged(steps_, comm_->rank(), why);
  return config_.cfl * dt;
}

void Driver::compute_rhs(const std::vector<std::vector<double>>& u,
                         std::vector<std::vector<double>>& rhs) {
  prof::ScopedRegion region("compute_rhs");
  // Cost-model attribution: thread-CPU time of the whole evaluation minus
  // the particle share (deposit), accumulated per measurement window. The
  // CPU clock charges a rank only for work it executed itself — comm waits
  // (condvar sleeps) and time descheduled in favor of other rank-threads on
  // an oversubscribed host accrue nothing — so per-element unit rates stay
  // meaningful whether ranks are processes on dedicated nodes or threads
  // sharing one test core. (With threads_per_rank > 1 the pool workers'
  // share of grid time is not charged to this thread; that scales the grid
  // unit rate down uniformly and cancels out of the relative comparison the
  // repartitioner makes.)
  prof::CpuTimer cost_timer;
  rhs_particle_seconds_ = 0.0;
  const ElementRhs kernel = element_rhs(u, rhs);
  // One schedule for every configuration. The face pack reads only `u` and
  // the exchange touches only myfaces_/nbrfaces_, so both go first. The
  // window runs between begin and finish when overlapping, and right after
  // finish otherwise (an empty window). Every rhs point sees the same
  // operations in the same order either way — volume, particle source,
  // then its own element's surface term — so the results are bit-identical.
  // The volume term writes every rhs point, so nothing zero-fills rhs.
  pack_faces(u);
  begin_faces();
  if (config_.overlap) {
    prof::ScopedRegion r("overlap_window");
    rhs_window(kernel, u, rhs);
  }
  finish_faces();
  if (!config_.overlap) rhs_window(kernel, u, rhs);
  surface_term(kernel, late_elems_);
  const double grid = cost_timer.seconds() - rhs_particle_seconds_;
  balance_window_.grid_seconds += grid;
  balance_total_.grid_seconds += grid;
}

ElementRhs Driver::element_rhs(const std::vector<std::vector<double>>& u,
                               std::vector<std::vector<double>>& rhs) const {
  ElementRhs k;
  k.physics = system_->point_physics();
  k.n = config_.n;
  k.nfields = nfields();
  for (int f = 0; f < k.nfields; ++f) {
    k.u[f] = u[f].data();
    k.rhs[f] = rhs[f].data();
  }
  k.variant = config_.variant;
  if (k.variant == kernels::GradVariant::kDispatch) {
    k.mxm = kernels::dispatch_mxm(config_.n);
  }
  k.d = ops_.d.data();
  k.dt = ops_.dt.data();
  k.myfaces = myfaces_.data();
  k.nbrfaces = nbrfaces_.data();
  k.face_size = mesh::face_array_size(config_.n, layout_.nel());
  k.w_edge = ops_.rule.weights[0];  // == weights[n-1]
  k.h = h_;
  k.elem_h = elem_h_.empty() ? nullptr : elem_h_.data();
  return k;
}

void Driver::rhs_window(const ElementRhs& kernel,
                        const std::vector<std::vector<double>>& u,
                        std::vector<std::vector<double>>& rhs) {
  volume_term(kernel, all_elems_);
  dealias_term(u);
  particle_source(rhs);
  surface_term(kernel, early_elems_);
}

void Driver::begin_faces() {
  prof::ScopedRegion region("exchange_begin");
  const int nf = nfields();
  if (config_.face_backend == FaceBackend::kDirect) {
    exchange_->begin(myfaces_.data(), nbrfaces_.data(), nf);
  } else {
    std::copy(myfaces_.begin(), myfaces_.end(), nbrfaces_.begin());
    face_gs_->exec_many_begin(std::span<double>(nbrfaces_), nf,
                              gs::ReduceOp::kSum);
  }
}

void Driver::finish_faces() {
  prof::ScopedRegion region("exchange_finish");
  if (config_.face_backend == FaceBackend::kDirect) {
    exchange_->finish();
  } else {
    face_gs_->exec_many_finish();
    // Each interior face point has exactly two copies, so the gs sum
    // yielded mine+neighbor; subtracting mine leaves the neighbor's.
    // Physical-boundary points (single copy) mirror mine.
    const std::size_t fsz = mesh::face_array_size(config_.n, layout_.nel());
    for (int f = 0; f < nfields(); ++f) {
      double* nbr = nbrfaces_.data() + f * fsz;
      const double* mine = myfaces_.data() + f * fsz;
      for (std::size_t s = 0; s < fsz; ++s) {
        nbr[s] = face_interior_[s] ? nbr[s] - mine[s] : mine[s];
      }
    }
  }
}

void Driver::volume_term(const ElementRhs& kernel,
                         std::span<const int> elems) {
  if (elems.empty()) return;
  prof::ScopedRegion ax_region("ax_ (flux divergence)");
  // Elements are independent — each chunk writes only its own elements'
  // rhs, and flux/derivative scratch is per thread — so splitting the list
  // across pool threads leaves every bit of the result unchanged.
  parallel::for_elements(
      elems.size(), parallel::default_grain(elems.size(), threads_), threads_,
      [&](std::size_t lo, std::size_t hi) { kernel.volume(elems, lo, hi); });
}

void Driver::dealias_term(const std::vector<std::vector<double>>& u) {
  // Always whole-rank in ascending element order: the checksum accumulates
  // across elements, so its order must not depend on the overlap split.
  if (!config_.dealias) return;
  prof::ScopedRegion dl_region("dealias (intp_rstd)");
  const int n = config_.n;
  const std::size_t elem = std::size_t(n) * n * n;
  const int last = nfields() - 1;  // energy field
  for (int e = 0; e < layout_.nel(); ++e) {
    kernels::dealias_roundtrip(ops_.interp.data(), ops_.interp_t.data(),
                               ops_.m, n, u[last].data() + e * elem,
                               dealias_fine_.data(), dealias_back_.data(),
                               dealias_work_.data());
    dealias_checksum_ += dealias_back_[0];
  }
}

void Driver::particle_source(std::vector<std::vector<double>>& rhs) {
  // Multiphase source term (paper Eq. 1's R).
  if (!tracker_ || config_.particle_coupling == 0.0) return;
  prof::ScopedRegion src_region("particle_source");
  prof::CpuTimer t;
  // Deposit onto the x-momentum equation (drag-like forcing); for the
  // single-field advection mode the scalar itself receives the source.
  const int target = nfields() >= 2 ? 1 : 0;
  tracker_->deposit_all(rhs[target].data(), config_.particle_coupling);
  const double s = t.seconds();
  rhs_particle_seconds_ += s;
  balance_window_.particle_seconds += s;
  balance_total_.particle_seconds += s;
}

void Driver::pack_faces(const std::vector<std::vector<double>>& u) {
  prof::ScopedRegion f2f_region("full2face_cmt");
  const int n = config_.n;
  const int nel = layout_.nel();
  const std::size_t fsz = mesh::face_array_size(n, nel);
  for (int f = 0; f < nfields(); ++f) {
    mesh::full2face(u[f].data(), myfaces_.data() + f * fsz, n, nel);
  }
}

void Driver::surface_term(const ElementRhs& kernel,
                          std::span<const int> elems) {
  if (elems.empty()) return;
  prof::ScopedRegion nfx_region("numerical_flux");
  // Each element's flux lift touches only that element's rhs points, and
  // myfaces_/nbrfaces_ are read-only here — element-parallel, bit-stable.
  parallel::for_elements(
      elems.size(), parallel::default_grain(elems.size(), threads_), threads_,
      [&](std::size_t lo, std::size_t hi) { kernel.surface(elems, lo, hi); });
}

void Driver::apply_dssum() {
  prof::ScopedRegion region("gs_op_ (dssum)");
  for (int f = 0; f < nfields(); ++f) {
    gs_->exec(std::span<double>(u_[f]), gs::ReduceOp::kSum);
    kernels::pointwise_scale(u_[f].data(), inv_multiplicity_.data(), pts_);
  }
}

void Driver::step() {
  prof::ScopedRegion region("cmt_step");
  const double dt = compute_dt();
  const int nf = nfields();

  if (config_.integrator == TimeIntegrator::kRk4) {
    step_rk4(dt);
  } else {
    // Shu-Osher form: u_i = a_i*u0 + b_i*(u_{i-1} + dt*L(u_{i-1})); the SSP
    // schemes are convex combinations of forward-Euler stages.
    struct Stage {
      double a, b;
    };
    static constexpr Stage kEulerTab[] = {{0.0, 1.0}};
    static constexpr Stage kRk2Tab[] = {{0.0, 1.0}, {0.5, 0.5}};
    static constexpr Stage kRk3Tab[] = {
        {0.0, 1.0}, {0.75, 0.25}, {1.0 / 3.0, 2.0 / 3.0}};
    const Stage* tab = kRk3Tab;
    int stages = 3;
    switch (config_.integrator) {
      case TimeIntegrator::kForwardEuler: tab = kEulerTab; stages = 1; break;
      case TimeIntegrator::kRk2Ssp: tab = kRk2Tab; stages = 2; break;
      default: break;
    }

    // u1_ holds the running stage value; u_ keeps u0 until the final write.
    std::vector<std::vector<double>>* prev = &u_;
    for (int s = 0; s < stages; ++s) {
      compute_rhs(*prev, rhs_);
      std::vector<std::vector<double>>* next =
          (s == stages - 1) ? &u_ : &u1_;
      for (int f = 0; f < nf; ++f) {
        kernels::ssp_stage((*next)[f].data(), u_[f].data(), (*prev)[f].data(),
                           rhs_[f].data(), tab[s].a, tab[s].b, dt, pts_);
      }
      prev = next;
    }
  }

  if (config_.use_dssum) apply_dssum();
  if (tracker_) step_particles(dt);

  time_ += dt;
  ++steps_;
  ++balance_window_.steps;
  ++balance_total_.steps;
  maybe_rebalance();
}

void Driver::step_particles(double dt) {
  prof::ScopedRegion region("particle_tracking");
  prof::CpuTimer cost_timer;
  // Every physics routes through the interpolated-field path: the system
  // fills the pointwise carrier flow (Euler: momentum / density; linear
  // advection: the constant transport velocity; Burgers: the local
  // characteristic speed) and the tracker interpolates it at each particle.
  // The historical shortcut of advancing non-Euler particles with the raw
  // config velocity bypassed the interpolation machinery entirely, so those
  // runs exercised a different (and unrepresentative) code path.
  const double* uptr[kMaxFields];
  for (int f = 0; f < nfields(); ++f) uptr[f] = u_[f].data();
  system_->carrier_velocity(uptr, carrier_[0].data(), carrier_[1].data(),
                            carrier_[2].data(), 0, pts_);
  tracker_->advance_interpolated(carrier_[0].data(), carrier_[1].data(),
                                 carrier_[2].data(), dt);
  tracker_->migrate();
  const double s = cost_timer.seconds();
  balance_window_.particle_seconds += s;
  balance_total_.particle_seconds += s;
}

void Driver::step_rk4(double dt) {
  // Classic RK4. u1_ is the stage state, u2_ accumulates the weighted ks.
  const int nf = nfields();
  const double half = 0.5 * dt;

  // k1..k3: accumulate into u2_, stage state into u1_.
  const double stage_h[3] = {half, half, dt};
  for (int stage = 0; stage < 3; ++stage) {
    compute_rhs(stage == 0 ? u_ : u1_, rhs_);
    for (int f = 0; f < nf; ++f) {
      kernels::rk4_stage(u2_[f].data(), u1_[f].data(), u_[f].data(),
                         rhs_[f].data(), stage_h[stage], stage == 0, pts_);
    }
  }
  compute_rhs(u1_, rhs_);  // k4
  for (int f = 0; f < nf; ++f) {
    kernels::rk4_finish(u_[f].data(), u2_[f].data(), rhs_[f].data(), dt / 6.0,
                        pts_);
  }
}

double Driver::run(int nsteps) {
  double t0 = time_;
  for (int s = 0; s < nsteps; ++s) step();
  return time_ - t0;
}

double Driver::run(int nsteps, const StepHook& after_step) {
  double t0 = time_;
  for (int s = 0; s < nsteps; ++s) {
    step();
    if (after_step) after_step(*this);
  }
  return time_ - t0;
}

long long Driver::flops_per_rhs() const {
  const int n = config_.n;
  const int nel = layout_.nel();
  const int nf = nfields();
  const long long n3 = 1LL * n * n * n;
  // Per direction and field: one derivative (2 N^4 per element), the
  // pointwise flux evaluation (~2 N^3) and the rhs axpy (2 N^3).
  long long volume = 3LL * nf * (kernels::grad_flops(n, nel) + 4 * n3 * nel);
  // Surface: per face point and field, the Rusanov flux is ~8 flops.
  long long surface = 1LL * nf * nel * 6 * n * n * 8;
  return volume + surface;
}

long long Driver::flops_per_step() const {
  return integrator_stages(config_.integrator) * flops_per_rhs();
}

std::vector<std::byte> Driver::serialize_checkpoint(long long epoch) const {
  io::CheckpointHeader header;
  header.n = config_.n;
  header.nel = layout_.nel();
  header.nfields = nfields();
  header.steps = steps_;
  header.time = time_;
  header.rank = comm_->rank();
  header.epoch = epoch;
  std::vector<const double*> fields;
  fields.reserve(u_.size());
  for (const auto& f : u_) fields.push_back(f.data());
  const std::vector<int>& own = layout_.owner();
  std::vector<std::int32_t> owner32(own.begin(), own.end());
  return io::serialize_checkpoint(header,
                                  std::span<const double* const>(fields), pts_,
                                  std::span<const std::int32_t>(owner32));
}

void Driver::save_checkpoint_file(const std::string& path,
                                  long long epoch) const {
  io::write_file_atomic(path, serialize_checkpoint(epoch));
}

void Driver::restore_state(const io::CheckpointHeader& header,
                           std::vector<std::vector<double>>&& fields,
                           std::span<const std::int32_t> owner) {
  if (header.n != config_.n || header.nfields != nfields()) {
    throw std::runtime_error(
        "load_checkpoint: geometry mismatch with this configuration");
  }
  // Resolve the layout the checkpoint was taken under: the stored v3 owner
  // map, or the static block partition for v1/v2 files.
  mesh::ElementLayout saved =
      owner.empty()
          ? mesh::ElementLayout::block(spec_, comm_->rank())
          : mesh::ElementLayout(spec_, comm_->rank(),
                                std::vector<int>(owner.begin(), owner.end()));
  if (header.nel != saved.nel()) {
    throw std::runtime_error(
        "load_checkpoint: geometry mismatch with this configuration");
  }
  if (!saved.same_ownership(layout_)) {
    layout_ = std::move(saved);
    rebuild_topology();
    if (tracker_) {
      tracker_->set_layout(layout_);
      tracker_->migrate();
    }
  }
  for (int f = 0; f < nfields(); ++f) u_[f] = std::move(fields[f]);
  time_ = header.time;
  steps_ = header.steps;
}

void Driver::load_checkpoint_file(const std::string& path) {
  std::vector<std::vector<double>> fields;
  std::vector<std::int32_t> owner;
  io::CheckpointHeader header = io::read_checkpoint(path, &fields, &owner);
  restore_state(header, std::move(fields),
                std::span<const std::int32_t>(owner));
}

void Driver::save_checkpoint(const std::string& directory,
                             const std::string& prefix) const {
  save_checkpoint_file(
      io::rank_checkpoint_path(directory, prefix, comm_->rank()));
}

void Driver::load_checkpoint(const std::string& directory,
                             const std::string& prefix) {
  load_checkpoint_file(
      io::rank_checkpoint_path(directory, prefix, comm_->rank()));
}

void Driver::export_vtk(const std::string& path) const {
  const int n = config_.n;
  std::vector<std::pair<std::string, std::span<const double>>> fields;
  static const char* kNames[] = {"rho", "mom_x", "mom_y", "mom_z", "energy"};
  for (int f = 0; f < nfields(); ++f) {
    const char* name = nfields() == 1 ? "u" : kNames[f];
    fields.emplace_back(name, std::span<const double>(u_[f]));
  }
  const std::size_t n3 = std::size_t(n) * n * n;
  io::write_vtk_points(
      path, pts_,
      [&](std::size_t p) {
        int e = int(p / n3);
        std::size_t r = p % n3;
        int i = int(r % n);
        int j = int((r / n) % n);
        int k = int(r / (std::size_t(n) * n));
        return node_coords(e, i, j, k);
      },
      fields);
}

double Driver::l2_norm(int f) {
  const int n = config_.n;
  const std::vector<double>& w = ops_.rule.weights;
  double sum = 0.0;
  std::size_t idx = 0;
  for (int e = 0; e < layout_.nel(); ++e) {
    // Per-element Jacobian; on a uniform mesh this is the historical
    // constant (same factors, same order), so the sum's bits are unchanged.
    const double jac = 0.125 * elem_h(e, 0) * elem_h(e, 1) * elem_h(e, 2);
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          double v = u_[f][idx++];
          sum += jac * w[i] * w[j] * w[k] * v * v;
        }
      }
    }
  }
  sum = comm_->allreduce_one(sum, comm::ReduceOp::kSum);
  return std::sqrt(sum);
}

double Driver::integral(int f) {
  const int n = config_.n;
  const std::vector<double>& w = ops_.rule.weights;
  double sum = 0.0;
  std::size_t idx = 0;
  for (int e = 0; e < layout_.nel(); ++e) {
    const double jac = 0.125 * elem_h(e, 0) * elem_h(e, 1) * elem_h(e, 2);
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          sum += jac * w[i] * w[j] * w[k] * u_[f][idx++];
        }
      }
    }
  }
  return comm_->allreduce_one(sum, comm::ReduceOp::kSum);
}

double Driver::l1_error(int f, const FieldFunction& exact) {
  const int n = config_.n;
  const std::vector<double>& w = ops_.rule.weights;
  double sum = 0.0;
  std::size_t idx = 0;
  for (int e = 0; e < layout_.nel(); ++e) {
    const double jac = 0.125 * elem_h(e, 0) * elem_h(e, 1) * elem_h(e, 2);
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i) {
          auto c = node_coords(e, i, j, k);
          sum += jac * w[i] * w[j] * w[k] *
                 std::abs(u_[f][idx++] - exact(c[0], c[1], c[2], f));
        }
      }
    }
  }
  return comm_->allreduce_one(sum, comm::ReduceOp::kSum);
}

double Driver::linf_error(const FieldFunction& exact) {
  const int n = config_.n;
  double err = 0.0;
  for (int f = 0; f < nfields(); ++f) {
    std::size_t idx = 0;
    for (int e = 0; e < layout_.nel(); ++e) {
      for (int k = 0; k < n; ++k) {
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < n; ++i) {
            auto c = node_coords(e, i, j, k);
            err = std::max(err,
                           std::abs(u_[f][idx++] - exact(c[0], c[1], c[2], f)));
          }
        }
      }
    }
  }
  return comm_->allreduce_one(err, comm::ReduceOp::kMax);
}

// --- dynamic load balancing --------------------------------------------------

void Driver::migrate_fields(const mesh::ElementLayout& next) {
  const int nf = nfields();
  const std::size_t epts =
      std::size_t(config_.n) * config_.n * config_.n;
  const int nranks = comm_->size();
  const int me = comm_->rank();

  // Pack leaving elements grouped by destination rank, ascending gid within
  // each group. Both sides hold the replicated owner maps, so the receiver
  // can reconstruct exactly which gids arrive from whom — but shipping the
  // gids alongside keeps the wire format self-describing.
  std::vector<int> gid_counts(nranks, 0), val_counts(nranks, 0);
  std::vector<long long> send_gids;
  std::vector<double> send_vals;
  for (int dest = 0; dest < nranks; ++dest) {
    if (dest == me) continue;
    for (int e = 0; e < layout_.nel(); ++e) {
      const long long g = layout_.gid_of(e);
      if (next.owner_of_gid(g) != dest) continue;
      send_gids.push_back(g);
      ++gid_counts[dest];
      for (int f = 0; f < nf; ++f) {
        const double* src = u_[f].data() + std::size_t(e) * epts;
        send_vals.insert(send_vals.end(), src, src + epts);
      }
      val_counts[dest] += int(nf * epts);
    }
  }

  std::vector<long long> arrived_gids = comm_->alltoallv(
      std::span<const long long>(send_gids), gid_counts);
  std::vector<double> arrived_vals = comm_->alltoallv(
      std::span<const double>(send_vals), val_counts);

  // Record i of the arrival stream owns arrived_vals[i*nf*epts ...): the
  // value and gid streams were packed congruently. Index by gid.
  std::vector<std::size_t> order(arrived_gids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return arrived_gids[a] < arrived_gids[b];
  });

  // Assemble the new local field set in the next layout's ascending-gid
  // local order from kept + arrived elements.
  std::vector<std::vector<double>> nu(
      nf, std::vector<double>(std::size_t(next.nel()) * epts));
  for (int e2 = 0; e2 < next.nel(); ++e2) {
    const long long g = next.gid_of(e2);
    const int e1 = layout_.local_of_gid(g);
    if (e1 >= 0) {
      for (int f = 0; f < nf; ++f) {
        std::copy_n(u_[f].data() + std::size_t(e1) * epts, epts,
                    nu[f].data() + std::size_t(e2) * epts);
      }
    } else {
      auto it = std::lower_bound(
          order.begin(), order.end(), g,
          [&](std::size_t a, long long gid) { return arrived_gids[a] < gid; });
      if (it == order.end() || arrived_gids[*it] != g) {
        throw std::logic_error("migrate_fields: expected element never arrived");
      }
      const double* blk = arrived_vals.data() + *it * nf * epts;
      for (int f = 0; f < nf; ++f) {
        std::copy_n(blk + std::size_t(f) * epts, epts,
                    nu[f].data() + std::size_t(e2) * epts);
      }
    }
  }
  u_ = std::move(nu);
}

void Driver::apply_layout(const std::vector<int>& owner) {
  mesh::ElementLayout next(spec_, comm_->rank(), owner);
  if (next.same_ownership(layout_)) return;
  migrate_fields(next);
  layout_ = std::move(next);
  rebuild_topology();
  if (tracker_) {
    tracker_->set_layout(layout_);
    // Re-home resident particles: ownership moved under them, so each rank
    // routes the particles it no longer owns (collective; ends with the
    // canonical id sort, keeping deposit order layout-invariant).
    tracker_->migrate();
  }
}

int Driver::rebalance_now() {
  prof::ScopedRegion region("rebalance");
  // Epoch overhead (decision + migration + topology rebuild) is charged to
  // the run-total busy time so the balanced run pays for its own machinery
  // in every busy-time comparison; it never enters the measurement window
  // the cost model fits unit rates from.
  prof::CpuTimer epoch_timer;
  std::vector<int> counts =
      tracker_ ? tracker_->count_per_element()
               : std::vector<int>(std::size_t(layout_.nel()), 0);
  const long long local_particles =
      tracker_ ? static_cast<long long>(tracker_->local_count()) : 0;
  cost_model_.observe(balance_window_, layout_.nel(), local_particles);
  balance_window_.reset();

  std::vector<double> cost = cost_model_.element_costs(counts);
  std::vector<double> dense =
      balance::gather_global_costs(*comm_, layout_, cost);
  balance::RebalanceConfig rc;
  rc.max_moves = config_.balance_max_moves;
  rc.threshold = config_.balance_threshold;
  balance::RebalancePlan plan = balance::propose_owner(layout_, dense, rc);
  if (plan.moves > 0) {
    apply_layout(plan.owner);
    ++balance_epochs_;
    balance_moves_ += plan.moves;
  }
  balance_total_.rebalance_seconds += epoch_timer.seconds();
  return plan.moves;
}

void Driver::maybe_rebalance() {
  if (config_.balance_interval <= 0) return;
  if (steps_ % config_.balance_interval != 0) return;
  rebalance_now();
}

std::vector<double> Driver::gather_global_field(int f) const {
  const std::size_t epts =
      std::size_t(config_.n) * config_.n * config_.n;
  std::vector<long long> gids = layout_.owned_gids();
  std::vector<long long> all_gids =
      comm_->allgatherv(std::span<const long long>(gids));
  std::vector<double> all_vals =
      comm_->allgatherv(std::span<const double>(u_[f]));
  std::vector<double> dense(
      std::size_t(layout_.total_elements()) * epts, 0.0);
  for (std::size_t i = 0; i < all_gids.size(); ++i) {
    std::copy_n(all_vals.begin() + i * epts, epts,
                dense.begin() + std::size_t(all_gids[i]) * epts);
  }
  return dense;
}

}  // namespace cmtbone::core

#pragma once
// The CMT-bone driver: an explicit DG spectral-element solver for the
// conservation law dU/dt + div f(U) = 0 on a periodic box, structured
// exactly like the mini-app the paper describes:
//
//   * volume term: flux divergence via the derivative-matrix kernels
//     (the ax_-like routine dominating Fig. 4),
//   * surface term: full2face_cmt extraction, nearest-neighbor exchange,
//     Rusanov numerical flux,
//   * optional dealiasing round-trip and gs_op direct-stiffness averaging,
//   * SSP-RK3 time stepping with a per-step allreduce for the CFL dt
//     (the "vector reductions" of §VI).
//
// Physics modes select the HyperbolicSystem stepped (see core/system.hpp);
// the proxy mode reproduces CMT-bone's abstraction, the advection and
// Burgers modes are analytically verifiable, the Euler mode exercises the
// full 5-field nonlinear path (smooth entropy wave or Sod's shock tube).

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "balance/cost_model.hpp"
#include "comm/comm.hpp"
#include "core/config.hpp"
#include "core/system.hpp"
#include "gs/gather_scatter.hpp"
#include "io/checkpoint.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/layout.hpp"
#include "mesh/partition.hpp"
#include "particles/tracker.hpp"
#include "prof/balance.hpp"
#include "sem/operators.hpp"

namespace cmtbone::core {

struct ElementRhs;  // core/element_rhs.hpp

class Driver {
 public:
  /// Collective over `comm`; comm.size() must equal the processor grid.
  Driver(comm::Comm& comm, const Config& config);

  /// Set fields from a callback (defaults provided by default_ic()).
  void initialize(const FieldFunction& ic);
  /// Physics-appropriate smooth default initial condition.
  FieldFunction default_ic() const;

  /// Advance `nsteps` steps; returns simulated time advanced.
  double run(int nsteps);
  /// Like run(), invoking `after_step` after every completed step. The
  /// resilience layer hangs its checkpoint cadence (and chaos its
  /// kill-at-step fault) off this hook; the hook may throw, which unwinds
  /// the run like any rank failure.
  using StepHook = std::function<void(Driver&)>;
  double run(int nsteps, const StepHook& after_step);
  void step();

  double time() const { return time_; }
  long steps_taken() const { return steps_; }

  /// CFL-limited dt from the per-element metric spacing (collective: one
  /// min-allreduce). Nonlinear systems fold their admissibility scan into
  /// the same reduction (a diverged rank contributes a negative sentinel),
  /// so every rank agrees and throws SolverDiverged together.
  double compute_dt();

  // --- field access and diagnostics --------------------------------------
  int nfields() const { return config_.nfields(); }
  std::span<const double> field(int f) const { return u_[f]; }
  std::span<double> mutable_field(int f) { return {u_[f].data(), u_[f].size()}; }

  /// Physical coordinates of GLL node (i,j,k) of local element e.
  std::array<double, 3> node_coords(int e, int i, int j, int k) const;

  /// Quadrature-weighted L2 norm / integral of a field over the whole
  /// domain (collective).
  double l2_norm(int f);
  double integral(int f);
  /// Max-norm error of all fields vs a callback (collective).
  double linf_error(const FieldFunction& exact);
  /// Quadrature-weighted L1 error of one field vs a callback (collective) —
  /// the right norm for discontinuous profiles (Sod).
  double l1_error(int f, const FieldFunction& exact);

  /// The hyperbolic system this driver steps (flux model, analytic
  /// solutions, admissibility).
  const HyperbolicSystem& system() const { return *system_; }

  const mesh::Partition& partition() const { return part_; }
  /// Current element ownership (the block layout until a rebalance moves
  /// elements; local indices are ascending-gid over the owned set).
  const mesh::ElementLayout& element_layout() const { return layout_; }
  const Config& config() const { return config_; }
  const sem::Operators& operators() const { return ops_; }
  gs::GatherScatter& gather_scatter() { return *gs_; }
  mesh::FaceExchange& face_exchange() { return *exchange_; }
  /// Null unless config.particles_per_rank > 0.
  particles::Tracker* tracker() { return tracker_.get(); }

  // --- dynamic load balancing ---------------------------------------------
  /// Adopt an explicit gid -> rank ownership map (collective): migrate the
  /// conserved fields and resident particles to the new owners and rebuild
  /// every layout-derived structure (exchange plans, gs handles, element
  /// classes, scratch sizes). With ordered_gs/balancing enabled the fields
  /// after migration are bit-identical to what a run that always owned this
  /// layout would hold.
  void apply_layout(const std::vector<int>& owner);
  /// Run one rebalance epoch now (collective): observe the cost window,
  /// propose a repartition, and apply it if it moves anything. Returns the
  /// number of elements migrated.
  int rebalance_now();

  /// Busy-time accounting since the last reset (grid + particle seconds);
  /// the cost model consumes the per-epoch window internally, this total
  /// is for the benches' imbalance-factor reports.
  const prof::BalanceStats& balance_stats() const { return balance_total_; }
  void reset_balance_stats() { balance_total_.reset(); }
  /// Rebalance epochs applied and total elements migrated so far.
  long long rebalance_epochs() const { return balance_epochs_; }
  long long rebalance_moves() const { return balance_moves_; }
  const balance::CostModel& cost_model() const { return cost_model_; }

  /// Assemble one field into the dense global-by-gid array (collective;
  /// identical on every rank): element gid g occupies [g*n^3, (g+1)*n^3).
  /// The layout-independent view the determinism tests compare.
  std::vector<double> gather_global_field(int f) const;

  /// Payload bytes this rank sends per RHS evaluation (face exchange only).
  long long face_bytes_per_rhs() const {
    return exchange_->send_bytes_per_exchange(nfields());
  }

  /// Analytic flop counts on this rank (documented model: derivative
  /// kernels dominate at 2 N^4 per element per field per direction, plus
  /// pointwise flux/axpy work at O(N^3)).
  long long flops_per_rhs() const;
  long long flops_per_step() const;

  // --- I/O -----------------------------------------------------------------
  /// Write this rank's fields to directory/prefix.rNNNNN.chk; every rank
  /// writes its own file (Nek's one-file-per-processor mode).
  void save_checkpoint(const std::string& directory,
                       const std::string& prefix) const;
  /// Restore fields, time, and step count from a matching checkpoint.
  /// Throws if the checkpoint geometry does not match this config.
  void load_checkpoint(const std::string& directory, const std::string& prefix);
  /// Single-file forms, used by the checkpoint coordinator which names
  /// files by (epoch, rank) and ships the same bytes to a buddy rank.
  void save_checkpoint_file(const std::string& path, long long epoch = -1) const;
  void load_checkpoint_file(const std::string& path);
  /// This rank's checkpoint as the exact bytes save_checkpoint_file would
  /// write (v3 header with CRC32, rank, `epoch`, and the element-ownership
  /// map, so a rebalanced run restores into the layout it saved from).
  std::vector<std::byte> serialize_checkpoint(long long epoch = -1) const;
  /// Adopt a parsed checkpoint (geometry-checked) as the current state.
  /// `owner` is the v3 ownership map (empty for v1/v2 files, which imply
  /// the static block partition). Collective when the stored layout differs
  /// from the current one — every rank restores together anyway.
  void restore_state(const io::CheckpointHeader& header,
                     std::vector<std::vector<double>>&& fields,
                     std::span<const std::int32_t> owner = {});
  /// Export this rank's fields as a legacy-VTK point cloud.
  void export_vtk(const std::string& path) const;

 private:
  /// Pack faces, begin the exchange, run the window (inside the exchange
  /// when config.overlap, after it otherwise), finish, then the surface
  /// term of the late elements.
  void compute_rhs(const std::vector<std::vector<double>>& u,
                   std::vector<std::vector<double>>& rhs);
  /// The element kernel's inputs for one RHS: fields, face arrays, extents,
  /// the point physics and the contraction kernel under the current
  /// backend selection.
  ElementRhs element_rhs(const std::vector<std::vector<double>>& u,
                         std::vector<std::vector<double>>& rhs) const;
  /// Volume term, dealias, particle source, and the early elements'
  /// surface term.
  void rhs_window(const ElementRhs& kernel,
                  const std::vector<std::vector<double>>& u,
                  std::vector<std::vector<double>>& rhs);
  /// myfaces_ -> nbrfaces_ through the selected face backend, split so
  /// the window can run in between.
  void begin_faces();
  void finish_faces();
  // The element kernel over an explicit element list, split across the
  // worker pool, so the surface term can run per early/late list. The
  // per-point floating-point operation sequence does not depend on how the
  // element list is split (each point belongs to exactly one element),
  // which is what keeps every window placement and thread count
  // bit-identical (see core/element_rhs.hpp).
  void volume_term(const ElementRhs& kernel, std::span<const int> elems);
  void surface_term(const ElementRhs& kernel, std::span<const int> elems);
  void dealias_term(const std::vector<std::vector<double>>& u);
  void particle_source(std::vector<std::vector<double>>& rhs);
  void pack_faces(const std::vector<std::vector<double>>& u);
  void step_rk4(double dt);
  void apply_dssum();
  void step_particles(double dt);
  /// Physical extent of local element `e` along `axis` (the uniform h_ or
  /// the element's slab width under a stretched map).
  double elem_h(int e, int axis) const {
    return elem_h_.empty() ? h_[axis] : elem_h_[std::size_t(e)][axis];
  }

  /// Ordered (key-canonical) gs folds: explicit knob or implied by dynamic
  /// balancing, which needs layout-invariant reduction order.
  bool ordered_gs_enabled() const {
    return config_.ordered_gs || config_.balance_interval > 0;
  }
  /// (Re)build everything derived from layout_: exchange/gs handles,
  /// element classes, buffer sizes, multiplicity. Collective. Called at
  /// construction and after every ownership change.
  void rebuild_topology();
  /// Ship the conserved fields to the owners under `next` (collective;
  /// u_ afterwards holds the new local set in ascending-gid order).
  void migrate_fields(const mesh::ElementLayout& next);
  void maybe_rebalance();

  comm::Comm* comm_;
  Config config_;
  std::unique_ptr<HyperbolicSystem> system_;
  mesh::BoxSpec spec_;
  mesh::Partition part_;
  mesh::ElementLayout layout_;
  sem::Operators ops_;
  int threads_ = 1;  // resolved threads_per_rank (config knob or env)
  std::vector<int> all_elems_;  // 0..nel-1
  // Surface-term split: early elements' faces are valid after
  // begin_faces(), late ones only after finish_faces().
  std::vector<int> early_elems_, late_elems_;
  std::unique_ptr<mesh::FaceExchange> exchange_;
  std::unique_ptr<gs::GatherScatter> gs_;
  std::vector<double> inv_multiplicity_;

  // Gather-scatter face-exchange backend (cfg.face_backend == kGatherScatter):
  // paired face-point ids plus an interior mask (physical-boundary points
  // have one copy and mirror their own value).
  std::unique_ptr<gs::GatherScatter> face_gs_;
  std::vector<unsigned char> face_interior_;

  std::unique_ptr<particles::Tracker> tracker_;

  // Load-balancing state: the cost model's per-epoch measurement window,
  // the run-total busy accounting, and applied-epoch counters.
  balance::CostModel cost_model_;
  prof::BalanceStats balance_window_;
  prof::BalanceStats balance_total_;
  double rhs_particle_seconds_ = 0;  // particle share of the current rhs
  long long balance_epochs_ = 0;
  long long balance_moves_ = 0;

  double time_ = 0.0;
  long steps_ = 0;

  std::size_t pts_ = 0;  // n^3 * nel
  // Fields and RK stage storage, one vector per conserved variable (the
  // element kernel's flux and derivative scratch is per thread).
  std::vector<std::vector<double>> u_, u1_, u2_, rhs_;
  std::vector<double> myfaces_, nbrfaces_;  // nfields stacked face arrays
  std::vector<double> dealias_fine_, dealias_back_, dealias_work_;
  double dealias_checksum_ = 0.0;
  // Particle carrier velocity scratch (allocated only with a tracker); the
  // system fills it pointwise and the tracker interpolates from it.
  std::array<std::vector<double>, 3> carrier_;

  // Geometry. h_ is the uniform per-axis element extent (the historical
  // unit-box fast path, still used verbatim when every axis map is
  // uniform). Under stretched maps, widths_[axis][g] / offsets_[axis][g]
  // hold the physical width and left edge of global slab g along `axis`,
  // and elem_h_ caches the per-local-element extents (rebuilt with the
  // layout; empty on uniform meshes).
  std::array<double, 3> h_;
  bool uniform_mesh_ = true;
  std::array<std::vector<double>, 3> widths_, offsets_;
  std::vector<std::array<double, 3>> elem_h_;
};

}  // namespace cmtbone::core

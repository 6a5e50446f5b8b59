#pragma once
// The hyperbolic-system abstraction: what the driver steps.
//
// The seed hard-coded two flux models into Driver (the 5-field linear proxy
// and Euler) behind `if (physics == ...)` branches. Following the shape of
// MFEM's hypsys miniapp (advection / Burgers / Euler behind one
// HyperbolicSystem class), the pointwise physics now lives behind this
// interface: the conserved-field count, the point physics (flux model
// constants the driver's element kernel inlines, see core/flux.hpp), the
// signal speed for the CFL bound, the particle carrier velocity,
// admissibility of a state, and the analytic initial/exact solutions where
// the scenario has them.
//
// Contract for implementations: the range methods must perform the same
// per-point floating-point operation sequence regardless of how a caller
// splits [lo, hi) — that batching-invariance is what keeps the overlap and
// worker-pool paths bit-identical to serial, exactly as the hard-coded
// branches were.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "core/flux.hpp"

namespace cmtbone::core {

/// Initial/exact-solution callback: (x, y, z, field) -> value.
using FieldFunction = std::function<double(double, double, double, int)>;

/// Upper bound on conserved fields across all systems (stack scratch size).
inline constexpr int kMaxFields = 8;

/// A rank produced a non-physical state (negative density/pressure, NaN).
/// Raised collectively — every rank agrees via the dt reduction and throws
/// together — so the recovery supervisor and the service layer attribute it
/// like any other job fault instead of letting NaNs advance
/// bit-deterministically. Deterministic replay would diverge identically,
/// so run_with_recovery treats it as terminal (never retried).
struct SolverDiverged : std::runtime_error {
  long long step;
  int rank;  // the rank that observed the state (or own rank if remote)
  SolverDiverged(long long at_step, int on_rank, const std::string& why)
      : std::runtime_error(
            "solver diverged at step " + std::to_string(at_step) +
            (why.empty() ? std::string(": non-physical state on another rank")
                         : ": " + why)),
        step(at_step),
        rank(on_rank) {}
};

class HyperbolicSystem {
 public:
  explicit HyperbolicSystem(const Config& config) : config_(config) {}
  virtual ~HyperbolicSystem() = default;

  virtual const char* name() const = 0;
  virtual int nfields() const = 0;

  /// The flux model's constants, which the driver's element kernel visits
  /// once per call and evaluates inline.
  virtual PointPhysics point_physics() const = 0;

  /// Axis flux of every field over points [lo, hi): u[f][p] -> f[f][p].
  /// The same loops the element kernel runs (core/element_rhs.hpp).
  void flux_range(const double* const* u, double* const* f, std::size_t lo,
                  std::size_t hi, int axis) const;

  /// Max signal speed over [lo, hi) along `axis` (the CFL bound). Linear
  /// systems return the constant without touching memory.
  virtual double max_wavespeed(const double* const* u, std::size_t lo,
                               std::size_t hi, int axis) const = 0;

  /// Per-point carrier velocity for Lagrangian particles, written into
  /// vx/vy/vz over [lo, hi). Linear advection carries Config::velocity;
  /// Euler carries momentum / density; Burgers carries a * u.
  virtual void carrier_velocity(const double* const* u, double* vx,
                                double* vy, double* vz, std::size_t lo,
                                std::size_t hi) const = 0;

  /// Whether states can leave the physical manifold (nonlinear systems).
  /// When true the driver scans admissibility at every step boundary and
  /// raises SolverDiverged on agreement.
  virtual bool needs_admissibility_check() const { return false; }
  /// True when every state in [lo, hi) is physical and finite. On failure
  /// `why` (if non-null) describes the first offending point.
  virtual bool admissible(const double* const* u, std::size_t lo,
                          std::size_t hi, std::string* why) const {
    (void)u;
    (void)lo;
    (void)hi;
    (void)why;
    return true;
  }

  /// The scenario's default initial condition.
  virtual FieldFunction initial_condition() const = 0;

  /// Whether exact_solution() is available (possibly only up to a finite
  /// time — see exact_solution_horizon()).
  virtual bool has_exact_solution() const { return false; }
  /// Analytic solution at time `t`; throws std::logic_error when
  /// has_exact_solution() is false.
  virtual FieldFunction exact_solution(double t) const;
  /// Latest time the exact solution is valid (infinity when unlimited;
  /// Burgers' characteristics cross at the shock-formation time).
  virtual double exact_solution_horizon() const;

  const Config& config() const { return config_; }

 protected:
  Config config_;
};

/// Instantiate the system Config::physics selects.
std::unique_ptr<HyperbolicSystem> make_system(const Config& config);

/// Exact solution of Sod's Riemann problem at similarity coordinate
/// xi = (x - x0) / t: primitive (rho, u, p) for the standard left state
/// (1, 0, 1) and right state (0.125, 0, 0.1). Exposed for the convergence
/// bench and tests.
struct SodSample {
  double rho, u, p;
};
SodSample sod_exact(double xi, double gamma);

}  // namespace cmtbone::core

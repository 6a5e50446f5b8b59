#include "core/system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/element_rhs.hpp"
#include "core/flux.hpp"

namespace cmtbone::core {

void HyperbolicSystem::flux_range(const double* const* u, double* const* f,
                                  std::size_t lo, std::size_t hi,
                                  int axis) const {
  axis_flux(point_physics(), u, f, lo, hi, axis);
}

FieldFunction HyperbolicSystem::exact_solution(double) const {
  throw std::logic_error(std::string(name()) +
                         ": no analytic solution for this scenario");
}

double HyperbolicSystem::exact_solution_horizon() const {
  return std::numeric_limits<double>::infinity();
}

namespace {

// Periodic wrap of x into [0, length).
double wrap(double x, double length) {
  x -= length * std::floor(x / length);
  return x >= length ? x - length : x;
}

// The smooth positive bump every linear scenario advects, generalized from
// the seed's unit-box profile to per-axis lengths (x/L == x bit-for-bit
// when L == 1, so the historical initial condition is unchanged).
double bump(double x, double y, double z, const std::array<double, 3>& len) {
  return 2.0 + std::sin(2.0 * M_PI * (x / len[0])) *
                   std::sin(2.0 * M_PI * (y / len[1])) *
                   std::sin(2.0 * M_PI * (z / len[2]));
}

// --- linear advection (proxy: 5 fields; validation: 1 field) --------------

class LinearAdvectionSystem : public HyperbolicSystem {
 public:
  LinearAdvectionSystem(const Config& config, int nf, const char* name)
      : HyperbolicSystem(config), nf_(nf), name_(name) {}

  const char* name() const override { return name_; }
  int nfields() const override { return nf_; }

  PointPhysics point_physics() const override {
    return LinearPoint{nf_, config_.velocity};
  }

  double max_wavespeed(const double* const*, std::size_t, std::size_t,
                       int axis) const override {
    return std::abs(config_.velocity[axis]);
  }

  void carrier_velocity(const double* const*, double* vx, double* vy,
                        double* vz, std::size_t lo,
                        std::size_t hi) const override {
    const auto v = config_.velocity;
    for (std::size_t p = lo; p < hi; ++p) {
      vx[p] = v[0];
      vy[p] = v[1];
      vz[p] = v[2];
    }
  }

  FieldFunction initial_condition() const override {
    const auto len = config_.domain_length();
    return [len](double x, double y, double z, int f) {
      return (f + 1) * bump(x, y, z, len);
    };
  }

  bool has_exact_solution() const override { return true; }

  FieldFunction exact_solution(double t) const override {
    // Linear advection on the periodic box: a translate of the IC.
    const auto v = config_.velocity;
    const auto len = config_.domain_length();
    const FieldFunction ic = initial_condition();
    return [v, len, ic, t](double x, double y, double z, int f) {
      return ic(wrap(x - v[0] * t, len[0]), wrap(y - v[1] * t, len[1]),
                wrap(z - v[2] * t, len[2]), f);
    };
  }

 private:
  int nf_;
  const char* name_;
};

// --- scalar Burgers --------------------------------------------------------

class BurgersSystem : public HyperbolicSystem {
 public:
  explicit BurgersSystem(const Config& config) : HyperbolicSystem(config) {}

  const char* name() const override { return "burgers"; }
  int nfields() const override { return 1; }

  PointPhysics point_physics() const override {
    return BurgersPoint{config_.velocity};
  }

  double max_wavespeed(const double* const* u, std::size_t lo, std::size_t hi,
                       int axis) const override {
    const double a = config_.velocity[axis];
    double lambda = 0.0;
    for (std::size_t p = lo; p < hi; ++p) {
      lambda = std::max(lambda, std::abs(a * u[0][p]));
    }
    return lambda;
  }

  void carrier_velocity(const double* const* u, double* vx, double* vy,
                        double* vz, std::size_t lo,
                        std::size_t hi) const override {
    // The local characteristic speed a * u — what a tracer embedded in the
    // Burgers "flow" rides.
    const auto a = config_.velocity;
    for (std::size_t p = lo; p < hi; ++p) {
      vx[p] = a[0] * u[0][p];
      vy[p] = a[1] * u[0][p];
      vz[p] = a[2] * u[0][p];
    }
  }

  bool needs_admissibility_check() const override { return true; }

  bool admissible(const double* const* u, std::size_t lo, std::size_t hi,
                  std::string* why) const override {
    for (std::size_t p = lo; p < hi; ++p) {
      if (!std::isfinite(u[0][p])) {
        if (why) {
          *why = "burgers: non-finite state at local point " +
                 std::to_string(p);
        }
        return false;
      }
    }
    return true;
  }

  // x-profile: g(x) = 0.5 + 0.25 sin(2 pi x / Lx), constant in y and z, so
  // the multi-axis flux collapses to 1-D dynamics along x.
  double profile(double x) const {
    return 0.5 + 0.25 * std::sin(2.0 * M_PI * (x / config_.mesh_map[0].length));
  }
  double profile_deriv(double x) const {
    const double lx = config_.mesh_map[0].length;
    return 0.25 * (2.0 * M_PI / lx) * std::cos(2.0 * M_PI * (x / lx));
  }

  FieldFunction initial_condition() const override {
    return [this](double x, double, double, int) { return profile(x); };
  }

  bool has_exact_solution() const override { return true; }

  double exact_solution_horizon() const override {
    // Characteristics cross when 1 + t * a_x * g'(x0) first hits zero:
    // t* = 1 / (|a_x| * max |g'|) with max |g'| = 0.5 pi / Lx.
    const double ax = std::abs(config_.velocity[0]);
    if (ax == 0.0) return std::numeric_limits<double>::infinity();
    return config_.mesh_map[0].length * 2.0 / (M_PI * ax);
  }

  FieldFunction exact_solution(double t) const override {
    // Method of characteristics: u = g(x - a_x u t), solved per point by
    // Newton (valid pre-shock, t < exact_solution_horizon()).
    const double ax = config_.velocity[0];
    return [this, ax, t](double x, double, double, int) {
      double u = profile(x);
      for (int it = 0; it < 100; ++it) {
        const double xi = x - ax * u * t;
        const double r = u - profile(xi);
        const double dr = 1.0 + ax * t * profile_deriv(xi);
        const double du = r / dr;
        u -= du;
        if (std::abs(du) < 1e-14) break;
      }
      return u;
    };
  }
};

// --- compressible Euler ----------------------------------------------------

class EulerSystem : public HyperbolicSystem {
 public:
  explicit EulerSystem(const Config& config) : HyperbolicSystem(config) {}

  const char* name() const override { return "euler"; }
  int nfields() const override { return 5; }

  PointPhysics point_physics() const override {
    return EulerPoint{config_.gamma};
  }

  double max_wavespeed(const double* const* u, std::size_t lo, std::size_t hi,
                       int axis) const override {
    const double gamma = config_.gamma;
    double lambda = 0.0;
    for (std::size_t p = lo; p < hi; ++p) {
      State5 s{u[0][p], u[1][p], u[2][p], u[3][p], u[4][p]};
      lambda = std::max(lambda, euler_wavespeed(s, axis, gamma));
    }
    return lambda;
  }

  void carrier_velocity(const double* const* u, double* vx, double* vy,
                        double* vz, std::size_t lo,
                        std::size_t hi) const override {
    for (std::size_t p = lo; p < hi; ++p) {
      vx[p] = u[1][p] / u[0][p];
      vy[p] = u[2][p] / u[0][p];
      vz[p] = u[3][p] / u[0][p];
    }
  }

  bool needs_admissibility_check() const override { return true; }

  bool admissible(const double* const* u, std::size_t lo, std::size_t hi,
                  std::string* why) const override {
    const double gamma = config_.gamma;
    for (std::size_t p = lo; p < hi; ++p) {
      const double rho = u[0][p], mx = u[1][p], my = u[2][p], mz = u[3][p],
                   e = u[4][p];
      if (!std::isfinite(rho) || !std::isfinite(mx) || !std::isfinite(my) ||
          !std::isfinite(mz) || !std::isfinite(e)) {
        if (why) {
          *why = "euler: non-finite state at local point " + std::to_string(p);
        }
        return false;
      }
      if (rho <= 0.0) {
        if (why) {
          *why = "euler: non-positive density " + std::to_string(rho) +
                 " at local point " + std::to_string(p);
        }
        return false;
      }
      const double kinetic = 0.5 * (mx * mx + my * my + mz * mz) / rho;
      const double pressure = (gamma - 1.0) * (e - kinetic);
      if (pressure < 0.0) {
        if (why) {
          *why = "euler: negative pressure " + std::to_string(pressure) +
                 " at local point " + std::to_string(p);
        }
        return false;
      }
    }
    return true;
  }

  FieldFunction initial_condition() const override {
    if (config_.euler_case == EulerCase::kSod) return sod_ic();
    // Smooth density (entropy) wave on a uniform (velocity, pressure)
    // background — the seed's default Euler IC.
    const auto vel = config_.velocity;
    const double gamma = config_.gamma;
    const auto len = config_.domain_length();
    return [vel, gamma, len](double x, double y, double z, int f) {
      double rho = 1.0 + 0.2 * (bump(x, y, z, len) - 2.0);
      double p = 1.0;
      double kinetic =
          0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
      switch (f) {
        case 0: return rho;
        case 1: return rho * vel[0];
        case 2: return rho * vel[1];
        case 3: return rho * vel[2];
        default: return p / (gamma - 1.0) + kinetic;
      }
    };
  }

  bool has_exact_solution() const override { return true; }

  FieldFunction exact_solution(double t) const override {
    if (config_.euler_case == EulerCase::kSod) {
      if (t == 0.0) return sod_ic();
      const double gamma = config_.gamma;
      const double x0 = 0.5 * config_.mesh_map[0].length;
      return [gamma, x0, t](double x, double, double, int f) {
        const SodSample s = sod_exact((x - x0) / t, gamma);
        switch (f) {
          case 0: return s.rho;
          case 1: return s.rho * s.u;
          case 2: return 0.0;
          case 3: return 0.0;
          default: return s.p / (gamma - 1.0) + 0.5 * s.rho * s.u * s.u;
        }
      };
    }
    // Entropy wave: the density profile translates at the uniform carrier
    // velocity; velocity and pressure stay constant, so every conserved
    // field is the translated IC.
    const auto v = config_.velocity;
    const auto len = config_.domain_length();
    const FieldFunction ic = initial_condition();
    return [v, len, ic, t](double x, double y, double z, int f) {
      return ic(wrap(x - v[0] * t, len[0]), wrap(y - v[1] * t, len[1]),
                wrap(z - v[2] * t, len[2]), f);
    };
  }

 private:
  FieldFunction sod_ic() const {
    const double gamma = config_.gamma;
    const double x0 = 0.5 * config_.mesh_map[0].length;
    // Smooth the initial jump over ~2 element widths with a tanh profile.
    // A nodal spectral scheme cannot represent a discontinuity that lands
    // inside an element: the unsmoothed step drives the pressure negative
    // within a few RK stages. The smoothing width vanishes under mesh
    // refinement, so the exact-Riemann comparison stays consistent.
    const double delta =
        2.0 * config_.mesh_map[0].length / std::max(1, config_.ex);
    return [gamma, x0, delta](double x, double, double, int f) {
      const double s = 0.5 * (1.0 - std::tanh((x - x0) / delta));  // 1 -> 0
      const double rho = 0.125 + s * (1.0 - 0.125);
      const double p = 0.1 + s * (1.0 - 0.1);
      switch (f) {
        case 0: return rho;
        case 1:
        case 2:
        case 3: return 0.0;
        default: return p / (gamma - 1.0);
      }
    };
  }
};

}  // namespace

SodSample sod_exact(double xi, double gamma) {
  // Exact Riemann solution (Toro ch. 4) for the Sod states: left
  // (rho, u, p) = (1, 0, 1), right (0.125, 0, 0.1). For gamma-law gases the
  // structure is a left rarefaction, contact, right shock; the sampler
  // below handles the general wave pattern anyway so perturbed gammas stay
  // correct.
  const double rl = 1.0, ul = 0.0, pl = 1.0;
  const double rr = 0.125, ur = 0.0, pr = 0.1;
  const double cl = std::sqrt(gamma * pl / rl);
  const double cr = std::sqrt(gamma * pr / rr);
  const double g1 = (gamma - 1.0) / (2.0 * gamma);
  const double g2 = (gamma + 1.0) / (2.0 * gamma);
  const double g3 = (gamma - 1.0) / (gamma + 1.0);

  // Pressure function f_K(p) and derivative for the star-region Newton.
  auto fk = [&](double p, double rk, double pk, double ck, double* dfdp) {
    if (p > pk) {  // shock
      const double a = 2.0 / ((gamma + 1.0) * rk);
      const double b = g3 * pk;
      const double sq = std::sqrt(a / (p + b));
      *dfdp = sq * (1.0 - 0.5 * (p - pk) / (p + b));
      return (p - pk) * sq;
    }
    // rarefaction
    const double pr_ratio = p / pk;
    *dfdp = std::pow(pr_ratio, -g2) / (rk * ck);
    return (2.0 * ck / (gamma - 1.0)) * (std::pow(pr_ratio, g1) - 1.0);
  };

  // Two-rarefaction initial guess, then Newton to machine precision.
  double ps = std::pow(
      (cl + cr - 0.5 * (gamma - 1.0) * (ur - ul)) /
          (cl / std::pow(pl, g1) + cr / std::pow(pr, g1)),
      1.0 / g1);
  ps = std::max(ps, 1e-12);
  for (int it = 0; it < 60; ++it) {
    double dfl, dfr;
    const double f =
        fk(ps, rl, pl, cl, &dfl) + fk(ps, rr, pr, cr, &dfr) + (ur - ul);
    const double dp = f / (dfl + dfr);
    ps -= dp;
    if (ps < 1e-12) ps = 1e-12;
    if (std::abs(dp) < 1e-14 * ps) break;
  }
  double dfl, dfr;
  const double us = 0.5 * (ul + ur) +
                    0.5 * (fk(ps, rr, pr, cr, &dfr) - fk(ps, rl, pl, cl, &dfl));

  SodSample out{};
  if (xi < us) {
    // Left of the contact.
    if (ps > pl) {  // left shock
      const double sl =
          ul - cl * std::sqrt(g2 * ps / pl + g1);
      if (xi < sl) {
        out = {rl, ul, pl};
      } else {
        const double r = rl * ((ps / pl + g3) / (g3 * ps / pl + 1.0));
        out = {r, us, ps};
      }
    } else {  // left rarefaction
      const double shl = ul - cl;
      const double csl = cl * std::pow(ps / pl, g1);
      const double stl = us - csl;
      if (xi < shl) {
        out = {rl, ul, pl};
      } else if (xi > stl) {
        out = {rl * std::pow(ps / pl, 1.0 / gamma), us, ps};
      } else {  // inside the fan
        const double u = (2.0 / (gamma + 1.0)) *
                         (cl + 0.5 * (gamma - 1.0) * ul + xi);
        const double c = (2.0 / (gamma + 1.0)) *
                         (cl + 0.5 * (gamma - 1.0) * (ul - xi));
        out = {rl * std::pow(c / cl, 2.0 / (gamma - 1.0)), u,
               pl * std::pow(c / cl, 2.0 * gamma / (gamma - 1.0))};
      }
    }
  } else {
    // Right of the contact.
    if (ps > pr) {  // right shock (the Sod case)
      const double sr = ur + cr * std::sqrt(g2 * ps / pr + g1);
      if (xi > sr) {
        out = {rr, ur, pr};
      } else {
        const double r = rr * ((ps / pr + g3) / (g3 * ps / pr + 1.0));
        out = {r, us, ps};
      }
    } else {  // right rarefaction
      const double shr = ur + cr;
      const double csr = cr * std::pow(ps / pr, g1);
      const double str = us + csr;
      if (xi > shr) {
        out = {rr, ur, pr};
      } else if (xi < str) {
        out = {rr * std::pow(ps / pr, 1.0 / gamma), us, ps};
      } else {
        const double u = (2.0 / (gamma + 1.0)) *
                         (-cr + 0.5 * (gamma - 1.0) * ur + xi);
        const double c = (2.0 / (gamma + 1.0)) *
                         (cr - 0.5 * (gamma - 1.0) * (ur - xi));
        out = {rr * std::pow(c / cr, 2.0 / (gamma - 1.0)), u,
               pr * std::pow(c / cr, 2.0 * gamma / (gamma - 1.0))};
      }
    }
  }
  return out;
}

std::unique_ptr<HyperbolicSystem> make_system(const Config& config) {
  switch (config.physics) {
    case Physics::kProxyAdvection:
      return std::make_unique<LinearAdvectionSystem>(config, 5,
                                                     "proxy-advection");
    case Physics::kAdvection:
      return std::make_unique<LinearAdvectionSystem>(config, 1, "advection");
    case Physics::kBurgers:
      return std::make_unique<BurgersSystem>(config);
    case Physics::kEuler:
      return std::make_unique<EulerSystem>(config);
  }
  throw std::invalid_argument("make_system: unknown physics");
}

}  // namespace cmtbone::core

// Step benchmark for the CMT-bone driver.
//
// Runs one seeded workload through the public comm::run + core::Driver API,
// times Driver::step() between barriers, checks the result, and prints every
// metric by name with its unit. The last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (median step time, set-up time,
// peak memory). --trace 1 also times calls into each layer's public
// functions from this file, at the step's own sizes, and reports the
// per-layer metrics (with the step-time tail and DOF rate) instead. No span
// is recorded inside the program.
//
//   cmtbone_perfbench --workload rhs-1r --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 = correct result, 1 = result printed but a correctness check
// failed, 2 = bad arguments or a behaviour-changing environment variable
// that differs from its pinned value (nothing printed as a result).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "balance/rebalancer.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/gather_scatter.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "mesh/faces.hpp"
#include "mesh/numbering.hpp"
#include "particles/tracker.hpp"
#include "prof/roofline.hpp"
#include "prof/timer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace cmtbone;

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  int ranks;
  core::Config config;
  int warmup_steps;  // run after set-up, never timed
  int check_steps;   // fixed-length run the first and last set-ups hash
  // Max-norm error against the exact solution after the check run, and its
  // allowed growth per unit of simulated time after the timed loop (whose
  // length depends on how fast the host and the program are). Both are
  // 6-15 times what the seed code shows; see perfbench/README.md.
  double check_err_bound;
  double err_growth_per_time;
};

// Set-up repetitions before the timed steps, and the interval between the
// ones made while they run. setup_s is the median of all of them. On a
// shared host the speed a run gets changes over seconds, so set-ups made
// back to back all see one speed and their median jumps from run to run;
// spread over the run, they see the same mix the steps do. See
// perfbench/README.md.
constexpr int kSetups = 11;
constexpr double kSetupEverySeconds = 1.0;
// Samples the p90 needs to leave at least ten beyond it.
constexpr std::size_t kMinSamples = 100;
// Relative drift of the mass integral (field 0) any run may show.
constexpr double kMassDriftBound = 1e-10;

core::Config base_config() {
  core::Config c;
  c.threads_per_rank = 1;  // pinned, never the env fallback
  c.kernel_backend = kernels::Backend::kBatched;
  c.variant = kernels::GradVariant::kDispatch;
  c.gs_method = gs::Method::kPairwise;
  c.face_backend = core::FaceBackend::kDirect;
  c.integrator = core::TimeIntegrator::kRk3Ssp;
  c.use_dssum = true;
  return c;
}

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  {
    core::Config c = base_config();
    c.physics = core::Physics::kProxyAdvection;
    c.n = 10;
    c.ex = c.ey = c.ez = 4;
    all.push_back({"rhs-1r", 1, c, 20, 8, 1e-5, 3e-4});
  }
  {
    core::Config c = base_config();
    c.physics = core::Physics::kProxyAdvection;
    c.n = 8;
    c.ex = 4, c.ey = 4, c.ez = 2;
    c.px = 2, c.py = 2, c.pz = 1;
    all.push_back({"halo-4r", 4, c, 200, 20, 1e-3, 1e-3});
    // The same 2x2x2 elements per rank on two ranks: what BENCHMARK.json
    // gates for transport, leaving two CPUs of the host free.
    c.ey = 2;
    c.py = 1;
    all.push_back({"halo-2r", 2, c, 200, 20, 1e-3, 1e-3});
  }
  {
    core::Config c = base_config();
    c.physics = core::Physics::kEuler;
    c.euler_case = core::EulerCase::kSmoothWave;
    c.n = 8;
    c.ex = 8, c.ey = 8, c.ez = 4;
    c.px = 2, c.py = 2, c.pz = 1;
    c.overlap = true;
    c.particles_per_rank = 4000;
    all.push_back({"euler-particles-4r", 4, c, 10, 5, 1e-8, 2e-6});
    // The same per-rank work on one rank: what BENCHMARK.json gates, since
    // a four-rank step stalls whenever the host preempts any of its CPUs
    // (see perfbench/README.md).
    c.ex = c.ey = c.ez = 4;
    c.px = c.py = c.pz = 1;
    all.push_back({"euler-particles-1r", 1, c, 10, 5, 1e-7, 6e-6});
  }
  return all;
}

// ---- seeded inputs ----------------------------------------------------------

// A smooth periodic perturbation g(x) = sum_m a_m sin(2 pi k_m . x + phi_m)
// with |g| < 0.9. Every workload's fields are translates of a profile built
// from g, so the exact solution at time t is the same profile at x - v t.
struct Perturbation {
  struct Mode {
    int k[3];
    double amp, phase;
  };
  std::vector<Mode> modes;

  double operator()(double x, double y, double z) const {
    double g = 0.0;
    for (const Mode& m : modes) {
      g += m.amp * std::sin(2.0 * M_PI * (m.k[0] * x + m.k[1] * y + m.k[2] * z) +
                            m.phase);
    }
    return g;
  }
};

Perturbation make_perturbation(std::uint64_t seed) {
  util::SplitMix64 rng(seed ^ 0x5eedf1e1dull);
  Perturbation p;
  for (int m = 0; m < 3; ++m) {
    Perturbation::Mode mode{};
    do {
      for (int& k : mode.k) k = int(rng.below(3)) - 1;  // -1, 0, 1
    } while (mode.k[0] == 0 && mode.k[1] == 0 && mode.k[2] == 0);
    mode.amp = rng.uniform(0.15, 0.3);
    mode.phase = rng.uniform(0.0, 2.0 * M_PI);
    p.modes.push_back(mode);
  }
  return p;
}

// Conserved field f as a function of the perturbation value g at a point.
double field_value(const core::Config& c, double g, int f) {
  if (c.physics != core::Physics::kEuler) return (f + 1) * (2.0 + g);
  const auto v = c.velocity;
  const double rho = 1.0 + 0.2 * g;  // entropy wave: uniform velocity, p = 1
  switch (f) {
    case 0: return rho;
    case 1: return rho * v[0];
    case 2: return rho * v[1];
    case 3: return rho * v[2];
    default:
      return 1.0 / (c.gamma - 1.0) +
             0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  }
}

// The exact solution at time t: the initial profile translated by the
// advection (proxy) or carrier (Euler) velocity on the periodic unit box.
core::FieldFunction exact_fields(const core::Config& c, const Perturbation& g,
                                 double t) {
  const auto v = c.velocity;
  return [c, g, v, t](double x, double y, double z, int f) {
    return field_value(c, g(x - v[0] * t, y - v[1] * t, z - v[2] * t), f);
  };
}

// The seeded initial condition handed to Driver::initialize. It memoizes g
// at the points initialize() visits, in visiting order: the first pass
// evaluates g, every later pass over the same points (the other fields, the
// later set-up repetitions) replays it, so setup_s times the driver rather
// than this file's sin() calls. A point that does not match the memo (a
// different visiting order) is evaluated directly, so values never depend
// on the order. One instance per rank thread.
class SeededInitialCondition {
 public:
  SeededInitialCondition(const core::Config& c, Perturbation g)
      : config_(c), g_(std::move(g)) {}

  core::FieldFunction callback() {
    return [this](double x, double y, double z, int f) {
      if (f != last_field_) cursor_ = 0;  // a new pass over the points
      last_field_ = f;
      double g;
      if (cursor_ < memo_.size() && memo_[cursor_].x == x &&
          memo_[cursor_].y == y && memo_[cursor_].z == z) {
        g = memo_[cursor_].g;
      } else {
        g = g_(x, y, z);
        if (cursor_ == memo_.size()) memo_.push_back({x, y, z, g});
      }
      ++cursor_;
      return field_value(config_, g, f);
    };
  }

 private:
  struct Point {
    double x, y, z, g;
  };
  core::Config config_;
  Perturbation g_;
  std::vector<Point> memo_;
  std::size_t cursor_ = 0;
  int last_field_ = -1;
};

// Particles uniform in the unit box, the same list on every rank; each rank
// keeps the ones its elements own (Tracker::adopt_global).
std::vector<particles::Particle> seeded_particles(long long total,
                                                  std::uint64_t seed) {
  util::SplitMix64 rng(seed ^ 0x9a47c1e5ull);
  std::vector<particles::Particle> all(std::size_t(std::max(0LL, total)));
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = {(long long)i, rng.uniform(), rng.uniform(), rng.uniform()};
  }
  return all;
}

// ---- correctness ------------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Hash of the global state: every field in gid order plus each rank's
// particles (id-sorted after migrate), combined in rank order. Collective;
// every rank returns the same value.
std::uint64_t state_hash(comm::Comm& world, core::Driver& driver) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int f = 0; f < driver.nfields(); ++f) {
    std::vector<double> global = driver.gather_global_field(f);
    h = fnv1a(global.data(), global.size() * sizeof(double), h);
  }
  std::uint64_t mine = 0;
  if (particles::Tracker* tracker = driver.tracker()) {
    const auto& ps = tracker->particles();
    mine = fnv1a(ps.data(), ps.size() * sizeof(particles::Particle));
  }
  std::vector<std::uint64_t> all =
      world.allgather(std::span<const std::uint64_t>(&mine, 1));
  return fnv1a(all.data(), all.size() * sizeof(std::uint64_t), h);
}

// ---- layer probes (trace mode) ------------------------------------------------

enum Layer {
  kStep,
  kComputeDt,
  kFluxRange,
  kGrad3,
  kFull2Face,
  kFaceExchange,
  kExchangeBegin,
  kExchangeFinish,
  kDssum,
  kAllreduce,
  kPingpong,
  kBarrier,
  kAdvance,
  kMigrate,
  kNumLayers
};

constexpr const char* kLayerName[kNumLayers] = {
    "core.step",          "core.compute_dt",     "core.flux_range",
    "kernels.grad3",      "mesh.full2face",      "mesh.face_exchange",
    "mesh.exchange_begin", "mesh.exchange_finish", "gs.dssum",
    "comm.allreduce",     "comm.pingpong",       "comm.barrier",
    "particles.advance",  "particles.migrate"};

// One timed call: start offset from the run's epoch, wall and thread-CPU
// seconds. wall - cpu is the time the call waited.
struct Span {
  double start, wall, cpu;
};

using SteadyClock = std::chrono::steady_clock;

// Everything a rank records; written only by its own thread, read by main
// after comm::run has joined every rank.
struct RankLog {
  std::array<std::vector<Span>, kNumLayers> spans;
  std::vector<long long> migrated;  // last_migrated per probe call
};

// One RankLog per rank; every other field is written by rank 0 only.
struct RunLog {
  std::vector<RankLog> ranks;
  std::vector<double> setup_s;          // max over ranks, per repetition
  std::vector<std::uint64_t> hashes;    // state hash after each check run
  double check_err = 0, final_err = 0, final_time = 0, mass_drift = 0;
  std::vector<double> step_s;           // untraced step times
  std::vector<double> traced_step_s;    // step times of the traced phase
  std::atomic<long long> attempted{0};
  // trace-mode extras
  std::vector<double> gs_setup_s;
  double imbalance = 1.0;
  long long flops_per_step = 0, face_bytes = 0, face_partners = 0,
            gs_send_values = 0;
  long long local_points = 0, local_elements = 0;
  std::string gs_method, backend;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::vector<int> cpus;  // rotated over by the ranks; empty: no rotation
};

// The CPUs this process may run on (empty if they cannot be read).
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Moves the calling thread to one CPU; best effort, a refusal is ignored.
void move_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void rank_body(comm::Comm& world, const Workload& w, const Options& opt,
               SteadyClock::time_point epoch, RunLog& log) {
  const int rank = world.rank();
  const bool root = rank == 0;
  RankLog& me = log.ranks[std::size_t(rank)];
  const core::Config& cfg = w.config;
  const Perturbation g = make_perturbation(opt.seed);
  SeededInitialCondition ic(cfg, g);
  const std::vector<particles::Particle> seeded =
      seeded_particles(1LL * cfg.particles_per_rank * w.ranks, opt.seed);

  // One timed set-up into `slot`, max over ranks.
  const auto timed_setup = [&](std::optional<core::Driver>& slot) {
    slot.reset();
    world.barrier();
    prof::WallTimer setup_timer;
    slot.emplace(world, cfg);
    slot->initialize(ic.callback());
    if (particles::Tracker* tracker = slot->tracker()) {
      tracker->adopt_global(seeded);
    }
    const double setup = world.allreduce_one(setup_timer.seconds(),
                                             comm::ReduceOp::kMax);
    if (root) log.setup_s.push_back(setup);
  };

  // --- set-up, repeated; the first and last repetitions also run the
  // fixed-length check, whose state hashes must agree ---------------------
  std::optional<core::Driver> driver;
  for (int r = 0; r < kSetups; ++r) {
    timed_setup(driver);
    if (r != 0 && r != kSetups - 1) continue;
    const double mass0 = driver->integral(0);
    driver->run(w.check_steps);
    const std::uint64_t h = state_hash(world, *driver);
    const double err = driver->linf_error(exact_fields(cfg, g, driver->time()));
    const double drift = std::abs(driver->integral(0) - mass0) / std::abs(mass0);
    if (root) {
      log.hashes.push_back(h);
      log.check_err = std::max(log.check_err, err);
      log.mass_drift = std::max(log.mass_drift, drift);
    }
  }
  core::Driver& d = *driver;
  const double mass0 = d.integral(0);
  const int nf = d.nfields();
  const int n = cfg.n;
  const int nel = d.element_layout().nel();
  const std::size_t pts = std::size_t(n) * n * n * std::size_t(nel);

  // Trace-mode-only state: probe buffers at the step's sizes, a probe
  // tracker (so probes never move the driver's own particles), counts.
  std::vector<std::vector<double>> flux;
  std::vector<double> grad_out, myfaces, nbrfaces, dssum_buf;
  std::array<std::vector<double>, 3> carrier;
  std::optional<particles::Tracker> probe_tracker;
  if (opt.trace) {
    flux.assign(std::size_t(nf), std::vector<double>(pts, 0.0));
    grad_out.assign(pts, 0.0);
    myfaces.assign(mesh::face_array_size(n, nel) * std::size_t(nf), 0.0);
    nbrfaces.assign(myfaces.size(), 0.0);
    dssum_buf.assign(pts, 0.0);
    for (auto& c : carrier) c.assign(pts, 0.0);
    probe_tracker.emplace(world, d.partition(), d.operators());
    // Same particle density as euler-particles-4r on every workload, so the
    // particles layer is measured everywhere at one size.
    constexpr int kProbeParticlesPerRank = 4000;
    probe_tracker->adopt_global(
        cfg.particles_per_rank > 0
            ? seeded
            : seeded_particles(1LL * kProbeParticlesPerRank * w.ranks,
                               opt.seed));

    for (int r = 0; r < kSetups; ++r) {
      const std::vector<long long> ids =
          mesh::global_gll_ids(d.element_layout());
      world.barrier();
      prof::WallTimer t;
      gs::GatherScatter handle(world, std::span<const long long>(ids),
                               cfg.gs_method);
      const double s = world.allreduce_one(t.seconds(), comm::ReduceOp::kMax);
      if (root) log.gs_setup_s.push_back(s);
    }
    const auto sum = [&](long long v) {
      return world.allreduce_one(v, comm::ReduceOp::kSum);
    };
    const long long flops = sum(d.flops_per_step());
    const long long bytes = sum(d.face_exchange().send_bytes_per_exchange(nf));
    const long long partners = world.allreduce_one(
        (long long)d.face_exchange().remote_partner_count(),
        comm::ReduceOp::kMax);
    const long long send_values =
        sum((long long)d.gather_scatter().pairwise_send_values());
    const long long max_pts =
        world.allreduce_one((long long)pts, comm::ReduceOp::kMax);
    const long long max_nel =
        world.allreduce_one((long long)nel, comm::ReduceOp::kMax);
    if (root) {
      log.flops_per_step = flops;
      log.face_bytes = bytes;
      log.face_partners = partners;
      log.gs_send_values = send_values;
      log.local_points = max_pts;
      log.local_elements = max_nel;
    }
  }
  if (root) {
    log.gs_method = gs::method_name(d.gather_scatter().method());
    log.backend = kernels::backend_name(kernels::selected_backend(n));
  }

  d.run(w.warmup_steps);
  d.reset_balance_stats();

  const auto since_epoch = [&] {
    return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
  };
  // Time one call. The CPU timer starts after and stops before the wall
  // timer, so the wall interval holds the CPU one and wall - cpu is never
  // negative.
  const auto timed = [&](Layer layer, auto&& call) {
    const double start = since_epoch();
    prof::WallTimer wall;
    prof::CpuTimer cpu;
    call();
    const double cpu_s = cpu.seconds();
    me.spans[layer].push_back({start, wall.seconds(), cpu_s});
  };
  // Time one call on every rank, after a barrier so the ranks start aligned.
  const auto probe = [&](Layer layer, auto&& call) {
    world.barrier();
    timed(layer, call);
  };

  double dt = 0.0;
  long iteration = 0;
  const auto probe_layers = [&] {
    const int axis = int(iteration % 3);
    const int field = int(iteration % nf);
    ++iteration;
    const double* u[core::kMaxFields];
    double* fl[core::kMaxFields];
    for (int f = 0; f < nf; ++f) {
      u[f] = d.field(f).data();
      fl[f] = flux[std::size_t(f)].data();
    }
    probe(kComputeDt, [&] { dt = d.compute_dt(); });
    probe(kFluxRange, [&] { d.system().flux_range(u, fl, 0, pts, axis); });
    probe(kGrad3, [&] {
      const double* dm = d.operators().d.data();
      const auto v = kernels::GradVariant::kDispatch;
      kernels::grad_r(v, dm, u[field], grad_out.data(), n, nel);
      kernels::grad_s(v, dm, u[field], grad_out.data(), n, nel);
      kernels::grad_t(v, dm, u[field], grad_out.data(), n, nel);
    });
    const std::size_t fsz = mesh::face_array_size(n, nel);
    probe(kFull2Face, [&] {
      for (int f = 0; f < nf; ++f) {
        mesh::full2face(u[f], myfaces.data() + std::size_t(f) * fsz, n, nel);
      }
    });
    probe(kFaceExchange, [&] {
      d.face_exchange().exchange(myfaces.data(), nbrfaces.data(), nf);
    });
    probe(kExchangeBegin, [&] {
      d.face_exchange().begin(myfaces.data(), nbrfaces.data(), nf);
    });
    // finish() right after begin(): the zero-window split exchange.
    timed(kExchangeFinish, [&] { d.face_exchange().finish(); });
    std::copy(u[field], u[field] + pts, dssum_buf.begin());
    probe(kDssum, [&] {
      d.gather_scatter().exec(std::span<double>(dssum_buf), gs::ReduceOp::kSum);
    });
    probe(kAllreduce, [&] {
      world.allreduce_one(double(rank), comm::ReduceOp::kMax);
    });
    // Half round trip of 8 B between ranks 0 and 1 (rank 0 with itself on
    // a one-rank job); the other ranks record nothing.
    world.barrier();
    if (rank <= 1) {
      constexpr int kTag = 7100;
      const int peer = world.size() > 1 ? 1 - rank : 0;
      double word = double(iteration);
      if (rank == 0) {
        timed(kPingpong, [&] {
          world.send(std::span<const double>(&word, 1), peer, kTag);
          world.recv(std::span<double>(&word, 1), peer, kTag);
        });
        Span& s = me.spans[kPingpong].back();
        s.wall *= 0.5;
        s.cpu *= 0.5;
      } else {
        world.recv(std::span<double>(&word, 1), peer, kTag);
        world.send(std::span<const double>(&word, 1), peer, kTag);
      }
    }
    probe(kBarrier, [&] { world.barrier(); });
    d.system().carrier_velocity(u, carrier[0].data(), carrier[1].data(),
                                carrier[2].data(), 0, pts);
    probe(kAdvance, [&] {
      probe_tracker->advance_interpolated(carrier[0].data(), carrier[1].data(),
                                          carrier[2].data(), dt);
    });
    probe(kMigrate, [&] { probe_tracker->migrate(); });
    me.migrated.push_back((long long)probe_tracker->last_migrated());
  };

  // --- timed steps ----------------------------------------------------------
  // Rank 0 decides when the phase ends and when to make one more set-up (of
  // a second Driver, dropped at once); the decisions are shared every 8
  // steps, outside the timed window.
  const auto timed_phase = [&](double seconds, bool traced,
                               std::vector<double>& samples) {
    prof::WallTimer clock;
    double next_setup = kSetupEverySeconds;
    for (long i = 1;; ++i) {
      // Before each step every rank moves to the next allowed CPU, the ranks
      // on distinct ones. A rank that never sleeps otherwise stays on one
      // CPU for a whole run, and on a shared host each CPU's speed changes
      // with its neighbours' load for seconds to minutes, so the run takes
      // that one CPU's luck: over six interleaved pairs of runs the spread
      // of rhs-1r's median was 0.31 without rotation and 0.06 with it (see
      // perfbench/README.md).
      if (!opt.cpus.empty()) {
        move_to_cpu(opt.cpus[std::size_t(i + rank) % opt.cpus.size()]);
      }
      world.barrier();
      const double start = since_epoch();
      prof::WallTimer step_timer;
      prof::CpuTimer cpu;
      if (root) ++log.attempted;
      d.step();
      world.barrier();
      const double s = step_timer.seconds();
      if (root) samples.push_back(s);
      if (traced) {
        me.spans[kStep].push_back({start, s, cpu.seconds()});
        probe_layers();
      }
      if (i % 8 == 0) {
        // Bit 0: go on; bit 1: set up now. Only rank 0 sets bits.
        int flags = 0;
        if (root) {
          const double now = clock.seconds();
          if (now < seconds || samples.size() < kMinSamples) flags |= 1;
          if (now >= next_setup) {
            flags |= 2;
            next_setup = now + kSetupEverySeconds;
          }
        }
        flags = world.allreduce_one(flags, comm::ReduceOp::kMax);
        if (!(flags & 1)) break;
        if (flags & 2) {
          std::optional<core::Driver> extra;
          timed_setup(extra);
        }
      }
    }
  };

  if (opt.trace) {
    // Untraced steps first, for the tracing-overhead baseline, then the
    // traced phase.
    timed_phase(0.5 * opt.seconds, false, log.step_s);
    timed_phase(0.5 * opt.seconds, true, log.traced_step_s);
    const double imb = balance::measure_imbalance(
                           world, d.balance_stats().busy_seconds())
                           .factor();
    if (root) log.imbalance = imb;
  } else {
    timed_phase(opt.seconds, false, log.step_s);
  }

  // --- final-state check ------------------------------------------------------
  if (opt.corrupt && root) d.mutable_field(0)[0] += 0.5;
  const double err = d.linf_error(exact_fields(cfg, g, d.time()));
  const double drift = std::abs(d.integral(0) - mass0) / std::abs(mass0);
  if (root) {
    log.final_err = err;
    log.final_time = d.time();
    log.mass_drift = std::max(log.mass_drift, drift);
  }
}

// ---- statistics and output ----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples <= it.
  std::size_t k = std::size_t(std::ceil(q * double(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size());
  return v[k - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

// Per call, the slowest rank's value (`pick` chooses wall or wait); then the
// median over calls. Ranks that recorded no calls of this layer are skipped.
template <class Pick>
double slowest_rank_median(const RunLog& log, Layer layer, Pick pick) {
  std::size_t calls = SIZE_MAX;
  for (const RankLog& r : log.ranks) {
    if (!r.spans[layer].empty()) calls = std::min(calls, r.spans[layer].size());
  }
  if (calls == SIZE_MAX) return std::nan("");
  std::vector<double> per_call(calls, -INFINITY);
  for (const RankLog& r : log.ranks) {
    if (r.spans[layer].empty()) continue;
    for (std::size_t i = 0; i < calls; ++i) {
      per_call[i] = std::max(per_call[i], pick(r.spans[layer][i]));
    }
  }
  return median(per_call);
}

double layer_s(const RunLog& log, Layer layer) {
  return slowest_rank_median(log, layer, [](const Span& s) { return s.wall; });
}
double layer_wait_s(const RunLog& log, Layer layer) {
  return slowest_rank_median(log, layer,
                             [](const Span& s) { return s.wall - s.cpu; });
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// Where a traced run writes its Chrome trace, relative to the working
// directory: <kTraceDir>/<workload>-seed<seed>.json.
constexpr const char* kTraceDir = ".bench_build/traces";

// Chrome trace-event JSON of the first `max_iterations` traced iterations,
// one track per rank (load in Perfetto or chrome://tracing).
void write_trace(const std::string& path, const RunLog& log,
                 std::size_t max_iterations) {
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t r = 0; r < log.ranks.size(); ++r) {
    for (int layer = 0; layer < kNumLayers; ++layer) {
      const auto& spans = log.ranks[r].spans[std::size_t(layer)];
      const std::size_t count = std::min(spans.size(), max_iterations);
      for (std::size_t i = 0; i < count; ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                      "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"cpu_us\": %.3f}}",
                      first ? "" : ",\n", kLayerName[layer], r,
                      spans[i].start * 1e6, spans[i].wall * 1e6,
                      spans[i].cpu * 1e6);
        out << buf;
        first = false;
      }
    }
  }
  out << "]}\n";
}

// ---- run environment ----------------------------------------------------------

// Variables that change what the program does. Each must be unset or equal
// to the value the benchmark pins through Config (nullptr: must be unset).
struct PinnedVar {
  const char* name;
  const char* value;
};
constexpr PinnedVar kPinnedVars[] = {
    {"CMTBONE_THREADS_PER_RANK", "1"},
    {"CMTBONE_KERNEL_BACKEND", "batched"},
    {"CMTBONE_KERNEL_AUTOTUNE", "0"},
    {"CMTBONE_POOL_WORKERS", nullptr},
};

bool check_pinned_env() {
  bool ok = true;
  for (const PinnedVar& p : kPinnedVars) {
    const char* v = std::getenv(p.name);
    if (v == nullptr) continue;
    if (p.value == nullptr || std::strcmp(v, p.value) != 0) {
      std::fprintf(stderr, "refusing to report: %s=%s differs from the pinned "
                   "value (%s)\n", p.name, v, p.value ? p.value : "unset");
      ok = false;
    }
  }
  return ok;
}

std::string env_record(const RunLog& log, const Options& opt) {
  std::string vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CMTBONE_", 8) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    if (!vars.empty()) vars += ", ";
    vars += "\"" + json_escape(std::string(*e, std::size_t(eq - *e))) + "\": \"" +
            json_escape(eq + 1) + "\"";
  }
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"isa\": \"%s\", \"kernel_backend\": \"%s\", "
                "\"gs_method\": \"%s\", \"threads_per_rank\": 1, "
                "\"rotation_cpus\": %zu, \"build\": \"%s\", "
                "\"compiler\": \"%s\", ",
                sysconf(_SC_NPROCESSORS_ONLN), kernels::isa_name(),
                log.backend.c_str(), log.gs_method.c_str(), opt.cpus.size(),
                json_escape(PERFBENCH_BUILD_FLAGS).c_str(),
                json_escape(PERFBENCH_COMPILER).c_str());
  return std::string(buf) + "\"env\": {" + vars + "}}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("workload",
               "rhs-1r | euler-particles-1r | halo-2r | halo-4r | "
               "euler-particles-4r")
      .describe("seed", "input seed (default 1)")
      .describe("seconds", "timed seconds (default 10)")
      .describe("trace", "0 = end-to-end metrics, 1 = per-layer metrics")
      .describe("corrupt", "perturb the final state (tests the gate)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  try {
    cli.reject_unknown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::vector<Workload> all = workloads();
  const std::string name = cli.get("workload", "");
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const Workload& w = *it;
  Options opt;
  opt.seed = std::uint64_t(cli.get_ll("seed", 1));
  opt.seconds = cli.get_double("seconds", 10.0);
  opt.trace = cli.get_int("trace", 0) != 0;
  opt.corrupt = cli.has("corrupt");
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (!check_pinned_env()) return 2;

  const long hw = sysconf(_SC_NPROCESSORS_ONLN);
  if (w.ranks > hw) {
    std::fprintf(stderr, "workload %s needs %d cores, host has %ld\n", w.name,
                 w.ranks, hw);
    return 2;
  }
  opt.cpus = allowed_cpus();
  if (opt.cpus.size() < std::size_t(w.ranks)) opt.cpus.clear();

  // The roofline probes run before any rank starts, so they time an idle
  // host; only the traced run reports them.
  const prof::Machine machine = opt.trace ? prof::machine() : prof::Machine{};

  RunLog log;
  log.ranks.resize(std::size_t(w.ranks));
  const auto epoch = SteadyClock::now();
  std::string error;
  try {
    comm::run(w.ranks, [&](comm::Comm& world) {
      rank_body(world, w, opt, epoch, log);
    });
  } catch (const std::exception& e) {
    error = e.what();
  }

  const core::Config& c = w.config;
  const int nf = c.nfields();
  const long long attempted = std::max(1LL, log.attempted.load());
  const double p50 = median(log.step_s);
  const double global_dof =
      double(c.n) * c.n * c.n * double(c.ex) * c.ey * c.ez * nf;

  std::vector<std::string> failures;
  if (!error.empty()) failures.push_back("run threw: " + error);
  if (error.empty()) {
    if (std::adjacent_find(log.hashes.begin(), log.hashes.end(),
                           std::not_equal_to<>()) != log.hashes.end()) {
      failures.push_back("state hash differs between set-up repetitions");
    }
    if (!(log.check_err <= w.check_err_bound)) {
      failures.push_back("check-run error " + std::to_string(log.check_err) +
                         " above bound");
    }
    if (!(log.final_err <=
          w.check_err_bound + w.err_growth_per_time * log.final_time)) {
      failures.push_back("final error " + std::to_string(log.final_err) +
                         " above bound");
    }
    if (!(log.mass_drift <= kMassDriftBound)) {
      failures.push_back("mass drift " + std::to_string(log.mass_drift) +
                         " above bound");
    }
    if (log.step_s.size() < kMinSamples) {
      failures.push_back("too few step samples");
    }
  }
  const bool correct = failures.empty();
  const long long failed = correct ? 0 : attempted;

  // Human-readable lines first; the JSON result is the last line.
  std::printf("workload %s: %d rank(s), %s, N=%d, %dx%dx%d elements, seed %" PRIu64
              "\n", w.name, w.ranks, core::physics_name(c.physics), c.n, c.ex,
              c.ey, c.ez, opt.seed);
  std::printf("environment: %s\n", env_record(log, opt).c_str());
  std::printf("check: state_hash=%016" PRIx64 " check_err=%.3e final_err=%.3e "
              "at t=%.4g, mass_drift=%.3e\n",
              log.hashes.empty() ? 0 : log.hashes.front(), log.check_err,
              log.final_err, log.final_time, log.mass_drift);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("steps: %zu timed samples (min %.4g, p10 %.4g, p50 %.4g, "
              "p90 %.4g, p99 %.4g s), %.4g DOF-updates/s, fail_frac %.3f "
              "(%lld of %lld)\n",
              log.step_s.size(), quantile(log.step_s, 0.0),
              quantile(log.step_s, 0.1), p50, quantile(log.step_s, 0.9),
              quantile(log.step_s, 0.99), global_dof / p50,
              double(failed) / double(attempted), failed, attempted);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"step_s_p50", p50, "s"},
        {"setup_s", median(log.setup_s), "s"},
        {"rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double step = layer_s(log, kStep);
    const bool overlap = c.overlap;
    const int stages = core::integrator_stages(c.integrator);
    // Calls of each probed layer inside one step (see README.md).
    const double attributed =
        layer_s(log, kComputeDt) + stages * 3 * layer_s(log, kFluxRange) +
        stages * nf * layer_s(log, kGrad3) + stages * layer_s(log, kFull2Face) +
        stages * (overlap ? layer_s(log, kExchangeBegin) +
                                layer_s(log, kExchangeFinish)
                          : layer_s(log, kFaceExchange)) +
        (c.use_dssum ? nf * layer_s(log, kDssum) : 0.0) +
        (c.particles_per_rank > 0
             ? layer_s(log, kAdvance) + layer_s(log, kMigrate)
             : 0.0);
    const double flux_s = layer_s(log, kFluxRange);
    const double grad_s = layer_s(log, kGrad3);
    const double grad_gflops =
        3.0 * double(kernels::grad_flops(c.n, int(log.local_elements))) /
        grad_s * 1e-9;
    std::vector<double> migrated;
    for (std::size_t i = 0; i < log.ranks[0].migrated.size(); ++i) {
      long long total = 0;
      for (const RankLog& r : log.ranks) {
        if (i < r.migrated.size()) total += r.migrated[i];
      }
      migrated.push_back(double(total));
    }
    metrics = {
        {"core.step_s", step, "s"},
        {"core.untraced_step_s", p50, "s"},
        {"core.step_p90_s", quantile(log.step_s, 0.9), "s"},
        {"core.dof_per_s", global_dof / p50, "1/s"},
        {"core.trace_overhead_ratio", step / p50, "ratio"},
        {"core.compute_dt_s", layer_s(log, kComputeDt), "s"},
        {"core.flux_range_s", flux_s, "s"},
        {"core.flux_range_gbs",
         2.0 * nf * double(log.local_points) * sizeof(double) / flux_s * 1e-9,
         "GB/s"},
        {"core.imbalance", log.imbalance, "ratio"},
        {"core.attributed_frac", attributed / step, "ratio"},
        {"kernels.grad3_s", grad_s, "s"},
        {"kernels.grad_gflops", grad_gflops, "GF/s"},
        {"kernels.grad_pct_peak", 100.0 * grad_gflops / machine.peak_gflops,
         "%"},
        {"kernels.flops_per_step", double(log.flops_per_step), "count"},
        {"mesh.full2face_s", layer_s(log, kFull2Face), "s"},
        {"mesh.face_exchange_s", layer_s(log, kFaceExchange), "s"},
        {"mesh.face_exchange_wait_s", layer_wait_s(log, kFaceExchange), "s"},
        {"mesh.exchange_begin_s", layer_s(log, kExchangeBegin), "s"},
        {"mesh.exchange_finish_s", layer_s(log, kExchangeFinish), "s"},
        {"mesh.face_bytes", double(log.face_bytes), "B"},
        {"mesh.face_partners", double(log.face_partners), "count"},
        {"gs.dssum_s", layer_s(log, kDssum), "s"},
        {"gs.dssum_wait_s", layer_wait_s(log, kDssum), "s"},
        {"gs.setup_s", median(log.gs_setup_s), "s"},
        {"gs.send_values", double(log.gs_send_values), "count"},
        {"comm.allreduce_s", layer_s(log, kAllreduce), "s"},
        {"comm.pingpong_s", layer_s(log, kPingpong), "s"},
        {"comm.barrier_s", layer_s(log, kBarrier), "s"},
        {"particles.advance_s", layer_s(log, kAdvance), "s"},
        {"particles.migrate_s", layer_s(log, kMigrate), "s"},
        {"particles.migrated", median(migrated), "count"},
        {"host.peak_gflops", machine.peak_gflops, "GF/s"},
        {"host.triad_gbs", machine.mem_gbytes, "GB/s"},
    };
    write_trace(std::string(kTraceDir) + "/" + w.name + "-seed" +
                    std::to_string(opt.seed) + ".json",
                log, 200);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

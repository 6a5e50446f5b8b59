// Final-state hashes over a fixed configuration matrix, one line per
// configuration: "<name> <FNV-1a of every field's gather_global_field>",
// plus, on chaos rows, "<schedule digest>".
//
// The matrix is physics {proxy, burgers, euler} x ranks {1, 2, 3} x overlap
// x integrator {RK3, RK4} x {plain; two threads per rank + dealias +
// coupled particles + ordered gs}, all on the pairwise gs method; a
// stretched, non-periodic Sod case on 1-3 ranks; and the two collective gs
// methods, {crystal router, allreduce} x physics {proxy, euler} x ranks
// {2, 3} x overlap, so dssum runs through each of the three exchange
// algorithms; and seeded chaos, proxy x ranks {2, 3} x overlap x
// {pairwise, crystal router} x ChaosPolicy::for_seed seeds {1, 2}. The
// crystal router receives through recv_vector, so these rows also run the
// mailbox's probe. A chaos row's digest pins every hold and hook decision,
// and the tool exits 1 when a chaos row's state hash differs from the same
// configuration run without chaos. Finally, rebalanced layouts: proxy x
// ranks {2, 3} x overlap, ordered gs with coupled particles, a clustered
// particle cloud adopted after initialization and a rebalance after every
// step, so face plans, ids and element classes are rebuilt on non-block
// layouts. These rows print "<name> <hash> moves=<n>", and the tool exits
// 1 when a balanced row moved no element or its hash differs from the same
// run without balancing. Each configuration runs a few steps from the
// default initial condition. Last, Nekbone: a CG solve on ranks {1, 2, 3}
// x gs method {pairwise, crystal router}, printing "<name> <hash of the
// solution> iters=<k>", so Nekbone's operator, dssum and dot product are
// pinned too. Every row runs the face exchange of mesh::FaceExchange (the
// "direct" in the row names); the gs method picks dssum's algorithm. The
// tool uses only public Driver, Tracker, balance scenario, RunOptions,
// ChaosEngine and Nekbone API, so the same file builds against older
// trees: bench/bits_vs_base.sh builds it at HEAD and at a base commit and
// fails on any differing line, which is how a refactor shows that it keeps
// every bit, every chaos schedule and every migration.
//
//   state_hashes            # prints 120 lines

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "balance/scenarios.hpp"
#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "nekbone/nekbone.hpp"
#include "util/cli.hpp"

namespace {

using namespace cmtbone;

constexpr int kSteps = 3;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Runs `cfg` on `ranks` ranks, under `chaos` when given, and hashes every
// field's global state. With a `cloud`, every rank adopts it after
// initialization; `moves` receives the elements the run migrated.
std::uint64_t final_state_hash(
    int ranks, const core::Config& cfg, chaos::ChaosEngine* chaos = nullptr,
    const std::vector<particles::Particle>* cloud = nullptr,
    long long* moves = nullptr) {
  std::uint64_t hash = 0;
  comm::RunOptions options;
  options.chaos = chaos;
  comm::run(ranks, [&](comm::Comm& world) {
    core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    if (cloud != nullptr) driver.tracker()->adopt_global(*cloud);
    driver.run(kSteps);
    if (moves != nullptr && world.rank() == 0) {
      *moves = driver.rebalance_moves();
    }
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int f = 0; f < driver.nfields(); ++f) {
      const std::vector<double> global = driver.gather_global_field(f);
      h = fnv1a(global.data(), global.size() * sizeof(double), h);
    }
    if (world.rank() == 0) hash = h;
  }, options);
  return hash;
}

void print(const std::string& name, int ranks, const core::Config& cfg) {
  std::printf("%s %016" PRIx64 "\n", name.c_str(), final_state_hash(ranks, cfg));
  std::fflush(stdout);
}

// Solves Nekbone's Helmholtz system on `ranks` ranks from a zero guess and
// hashes the solution, every rank's points in rank order; `iters` receives
// the CG iteration count.
std::uint64_t nekbone_solution_hash(int ranks, gs::Method method, int* iters) {
  std::uint64_t hash = 0;
  comm::run(ranks, [&](comm::Comm& world) {
    nekbone::NekboneConfig cfg;
    cfg.n = 5;
    cfg.ex = 6, cfg.ey = 2, cfg.ez = 2;
    cfg.gs_method = method;
    cfg.threads_per_rank = 1;
    nekbone::Nekbone nb(world, cfg);
    std::vector<double> b(nb.points()), x(nb.points(), 0.0);
    nb.assemble_rhs(
        [](double px, double py, double pz) {
          return std::sin(2 * M_PI * px) * std::cos(2 * M_PI * py) + pz;
        },
        std::span<double>(b));
    const int k = nb.solve_cg(std::span<double>(x), b, 200, 1e-10).iterations;
    const std::vector<double> all =
        world.allgatherv(std::span<const double>(x));
    if (world.rank() == 0) {
      hash = fnv1a(all.data(), all.size() * sizeof(double),
                   0xcbf29ce484222325ull);
      *iters = k;
    }
  });
  return hash;
}

core::Config base_config() {
  core::Config c;
  c.n = 5;
  c.ex = 6, c.ey = 2, c.ez = 2;  // 6 x 2 x 2 splits over 1, 2 and 3 ranks
  c.threads_per_rank = 1;        // pinned, never the environment fallback
  c.kernel_backend = kernels::Backend::kBatched;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();
  const core::Physics physics[] = {core::Physics::kProxyAdvection,
                                   core::Physics::kBurgers,
                                   core::Physics::kEuler};
  const core::TimeIntegrator integrators[] = {core::TimeIntegrator::kRk3Ssp,
                                              core::TimeIntegrator::kRk4};
  for (core::Physics ph : physics) {
    for (int ranks = 1; ranks <= 3; ++ranks) {
      for (bool overlap : {false, true}) {
        for (core::TimeIntegrator ti : integrators) {
          for (bool loaded : {false, true}) {
            core::Config c = base_config();
            c.physics = ph;
            c.overlap = overlap;
            c.integrator = ti;
            if (loaded) {
              c.threads_per_rank = 2;
              c.dealias = true;
              c.particles_per_rank = 24;
              c.particle_coupling = 0.05;
              c.ordered_gs = true;
            }
            const std::string name =
                std::string(core::physics_name(ph)) + "/r" +
                std::to_string(ranks) + (overlap ? "/overlap" : "/blocking") +
                "/direct/" + core::integrator_name(ti) +
                (loaded ? "/loaded" : "/plain");
            print(name, ranks, c);
          }
        }
      }
    }
  }
  // Physical boundaries and per-element extents: Sod on a geometric x map.
  for (int ranks = 1; ranks <= 3; ++ranks) {
    for (bool overlap : {false, true}) {
      core::Config c = base_config();
      c.physics = core::Physics::kEuler;
      c.euler_case = core::EulerCase::kSod;
      c.periodic = false;
      c.mesh_map[0] = {mesh::AxisMapKind::kGeometric, 1.3, 1.0};
      c.fixed_dt = 1e-3;
      c.overlap = overlap;
      print(std::string("euler-sod-geometric/r") + std::to_string(ranks) +
                (overlap ? "/overlap" : "/blocking"),
            ranks, c);
    }
  }
  // dssum on the collective gs methods.
  const std::pair<gs::Method, const char*> collective_methods[] = {
      {gs::Method::kCrystalRouter, "gs-crystal"},
      {gs::Method::kAllReduce, "gs-allreduce"}};
  for (core::Physics ph :
       {core::Physics::kProxyAdvection, core::Physics::kEuler}) {
    for (int ranks = 2; ranks <= 3; ++ranks) {
      for (bool overlap : {false, true}) {
        for (const auto& [method, label] : collective_methods) {
          core::Config c = base_config();
          c.physics = ph;
          c.overlap = overlap;
          c.gs_method = method;
          print(std::string(core::physics_name(ph)) + "/r" +
                    std::to_string(ranks) +
                    (overlap ? "/overlap" : "/blocking") + "/direct/" + label,
                ranks, c);
        }
      }
    }
  }
  // Seeded chaos on a point-to-point and a collective gs method.
  const std::pair<gs::Method, const char*> chaos_methods[] = {
      {gs::Method::kPairwise, "gs-pairwise"},
      {gs::Method::kCrystalRouter, "gs-crystal"}};
  bool chaos_moved_bits = false;
  for (int ranks = 2; ranks <= 3; ++ranks) {
    for (bool overlap : {false, true}) {
      for (const auto& [method, label] : chaos_methods) {
        core::Config c = base_config();
        c.physics = core::Physics::kProxyAdvection;
        c.overlap = overlap;
        c.gs_method = method;
        const std::uint64_t plain = final_state_hash(ranks, c);
        for (std::uint64_t seed : {1, 2}) {
          chaos::ChaosEngine engine(chaos::ChaosPolicy::for_seed(seed, ranks),
                                    ranks);
          const std::uint64_t h = final_state_hash(ranks, c, &engine);
          std::printf("%s/r%d%s/direct/%s/chaos%" PRIu64 " %016" PRIx64
                      " %016" PRIx64 "\n",
                      core::physics_name(c.physics), ranks,
                      overlap ? "/overlap" : "/blocking", label, seed, h,
                      engine.digest());
          std::fflush(stdout);
          chaos_moved_bits = chaos_moved_bits || h != plain;
        }
      }
    }
  }
  // Rebalanced layouts against the same runs on the static block layout.
  balance::ClusterSpec cluster;
  cluster.count = 600;
  const std::vector<particles::Particle> cloud =
      balance::clustered_cloud(cluster);
  bool balance_failed = false;
  for (int ranks = 2; ranks <= 3; ++ranks) {
    for (bool overlap : {false, true}) {
      core::Config c = base_config();
      c.physics = core::Physics::kProxyAdvection;
      c.overlap = overlap;
      c.particles_per_rank = 8;
      c.particle_coupling = 0.01;
      c.ordered_gs = true;
      const std::uint64_t fixed = final_state_hash(ranks, c, nullptr, &cloud);
      c.balance_interval = 1;
      c.balance_max_moves = 4;
      c.balance_cost_mode = balance::CostMode::kParticleCount;
      long long moves = 0;
      const std::uint64_t h =
          final_state_hash(ranks, c, nullptr, &cloud, &moves);
      std::printf("%s/r%d%s/direct/balanced %016" PRIx64 " moves=%lld\n",
                  core::physics_name(c.physics), ranks,
                  overlap ? "/overlap" : "/blocking", h, moves);
      std::fflush(stdout);
      balance_failed = balance_failed || h != fixed || moves == 0;
    }
  }
  // Nekbone's CG solve on a point-to-point and a collective gs method.
  for (int ranks = 1; ranks <= 3; ++ranks) {
    for (const auto& [method, label] : chaos_methods) {
      int iters = 0;
      const std::uint64_t h = nekbone_solution_hash(ranks, method, &iters);
      std::printf("nekbone/r%d/%s %016" PRIx64 " iters=%d\n", ranks, label, h,
                  iters);
      std::fflush(stdout);
    }
  }
  if (chaos_moved_bits) {
    std::fprintf(stderr,
                 "state_hashes: a chaos row's final state differs from its "
                 "chaos-free run\n");
  }
  if (balance_failed) {
    std::fprintf(stderr,
                 "state_hashes: a balanced row moved no element or its final "
                 "state differs from the static-layout run\n");
  }
  return chaos_moved_bits || balance_failed ? 1 : 0;
}

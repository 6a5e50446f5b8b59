// Figs. 5 & 6 reproduction: partial-derivative kernel runtimes, instruction
// counts, and cycle counts, with and without loop transformations.
//
// Paper setup: AMD Opteron 6378, gfortran, Nel=1563, N=10, 1000 "steps"
// (kernel invocations), PAPI counters. Here: the same kernels in C++, with
// hardware counters via perf_event_open when the kernel allows it,
// otherwise the analytic instruction model plus TSC cycles. The paper's
// headline: loop fusion + unroll makes dudt 2.31x and dudr 1.03x faster,
// while duds gains nothing because its access pattern forbids fusion.
//
// Usage: fig5_fig6_derivative_opt [--nel 200] [--steps 100] [--n 10]
//        (--nel 1563 --steps 1000 for the paper's exact workload)
//        [--json FILE] instead sweeps N=5..25 timing every kernel-dispatch
//        backend (scalar, SIMD+FMA, batched) and the paper's fused+unrolled
//        loops on the derivative contraction shapes, reports GFLOP/s and %
//        of the measured machine peak, and writes JSON. Fails loudly
//        (exit 1) if any dispatched backend loses to scalar across the
//        sweep, printing the losing variant and every N where it lost, or
//        if batched does not beat fused+unrolled over N=5..16.
//        [--smoke] gates that the default kernel backend is not slower
//        than the scalar one on a subset of N (the CI smoke check).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"
#include "prof/perf_counters.hpp"
#include "prof/roofline.hpp"
#include "prof/timer.hpp"
#include "sem/operators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Measurement {
  double seconds = 0;
  unsigned long long instructions = 0;
  unsigned long long cycles = 0;
  bool hw = false;
  // What `cycles` counts: real core cycles from perf_event when hw is true,
  // otherwise prof::read_cycles() — TSC ticks on x86 but steady-clock
  // *nanoseconds* on other platforms. Reported next to every count so the
  // two are never compared as if they shared a unit.
  const char* cycle_unit = "";
};

const char* measured_cycle_unit(bool hw) {
  return hw ? "hw-cycles" : cmtbone::prof::cycle_unit_name();
}

Measurement measure(cmtbone::kernels::GradVariant v, int dir, const double* d,
                    const double* u, double* out, int n, int nel, int steps) {
  using namespace cmtbone::kernels;
  auto call = [&] {
    switch (dir) {
      case 0: grad_r(v, d, u, out, n, nel); break;
      case 1: grad_s(v, d, u, out, n, nel); break;
      default: grad_t(v, d, u, out, n, nel); break;
    }
  };
  call();  // warm up

  Measurement m;
  cmtbone::prof::HwCounters hw;
  cmtbone::prof::WallTimer t;
  auto c0 = cmtbone::prof::read_cycles();
  hw.start();
  for (int s = 0; s < steps; ++s) call();
  hw.stop();
  auto c1 = cmtbone::prof::read_cycles();
  m.seconds = t.seconds();
  m.hw = hw.available();
  m.cycle_unit = measured_cycle_unit(m.hw);
  if (m.hw) {
    m.instructions = hw.instructions();
    m.cycles = hw.cycles();
  } else {
    m.instructions =
        (unsigned long long)(grad_instruction_estimate(v, n, nel)) * steps;
    m.cycles = c1 - c0;
  }
  return m;
}

// --- backend sweep (--json) -------------------------------------------------
//
// Times every kernel-dispatch backend on the derivative contraction pair
// (dudr + dudt over a batch of elements, the shapes the solver routes
// through mxm), via the same grad_backend entry point the dispatch layer
// uses in production, next to GradVariant::kFusedUnrolled — the paper's
// compile-time-N production form (Fig. 5). Best-of-k timing; element
// batch scaled so every N does comparable work. Reports GFLOP/s and
// percent of the measured machine compute peak per kernel.
double best_of_sweeps(const std::function<void()>& body) {
  body();  // warm up
  double best = 1e300;
  for (int s = 0; s < 7; ++s) {
    cmtbone::prof::WallTimer t;
    for (int r = 0; r < 20; ++r) body();
    best = std::min(best, t.seconds() / 20.0);
  }
  return best;
}

int run_backend_json_sweep(const std::string& path) {
  using namespace cmtbone;
  using kernels::Backend;
  const auto& backends = kernels::all_backends();
  const prof::Machine& mach = prof::machine();

  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"fig5_fig6_derivative_opt --json\",\n"
               "  \"compare\": \"kernel dispatch backends (scalar, simd-fma, "
               "batched) and the paper's fused+unrolled loops on the "
               "derivative contraction pair\",\n"
               "  \"shapes\": \"per element: dudr (NxN * NxN^2) + dudt "
               "(N^2xN * NxN) via kernels::grad_backend\",\n"
               "  \"timing\": \"best of 7 samples, 20 sweeps per sample\",\n"
               "  \"machine\": {\"isa\": \"%s\", \"peak_gflops\": %.2f, "
               "\"mem_gbytes_per_s\": %.2f},\n"
               "  \"results\": [\n",
               mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes);

  std::printf("=== kernel backend sweep (isa %s, peak %.1f GFLOP/s, "
              "mem %.1f GB/s) ===\n",
              mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes);

  // Per-backend log-speedup accumulators vs scalar, plus every N where a
  // backend lost — the loud-failure check gates each dispatched backend and
  // names the loser.
  std::vector<double> log_speedup(backends.size(), 0.0);
  std::vector<std::vector<int>> losses(backends.size());
  double log_batched_over_fu_5_16 = 0.0;
  int points_5_16 = 0;
  int sweep_points = 0;
  bool first = true;

  for (int n = 5; n <= 25; ++n) {
    const int nel = std::max(4, 4000 / (n * n));
    const std::size_t epts = std::size_t(n) * n * n;
    util::SplitMix64 rng(7 * n + 1);
    std::vector<double> d(std::size_t(n) * n), u(epts * nel),
        scratch(epts * nel);
    for (double& x : d) x = rng.uniform(-1, 1);
    for (double& x : u) x = rng.uniform(-1, 1);

    // r + t derivative of the whole batch: 2 x 2 N^4 nel flops.
    const double flops = 2.0 * kernels::grad_flops(n, nel);
    const double bytes = 2.0 * kernels::grad_bytes(n, nel);
    const double intensity = flops / bytes;

    std::vector<double> secs(backends.size());
    double batched_s = 0.0;
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      const Backend b = backends[bi];
      secs[bi] = best_of_sweeps([&] {
        kernels::grad_backend(b, 0, d.data(), u.data(), scratch.data(), n,
                              nel);
        kernels::grad_backend(b, 2, d.data(), u.data(), scratch.data(), n,
                              nel);
      });
      if (b == Backend::kBatched) batched_s = secs[bi];
    }
    const auto fu = kernels::GradVariant::kFusedUnrolled;
    const double fu_s = best_of_sweeps([&] {
      kernels::grad_r(fu, d.data(), u.data(), scratch.data(), n, nel);
      kernels::grad_t(fu, d.data(), u.data(), scratch.data(), n, nel);
    });

    const double scalar_s = secs[0];
    std::size_t best_bi = 0;
    std::fprintf(out,
                 "%s    {\"n\": %d, \"nel\": %d, \"intensity\": %.3f, "
                 "\"backends\": {",
                 first ? "" : ",\n", n, nel, intensity);
    first = false;
    std::printf("  N=%2d nel=%4d:", n, nel);
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      const Backend b = backends[bi];
      const double gflops = flops / secs[bi] / 1e9;
      const double speedup = scalar_s / secs[bi];
      std::fprintf(out,
                   "%s\"%s\": {\"seconds\": %.9e, \"gflops\": %.3f, "
                   "\"pct_peak\": %.2f, \"speedup_vs_scalar\": %.3f}",
                   bi == 0 ? "" : ", ", kernels::backend_name(b), secs[bi],
                   gflops, prof::percent_of_peak(mach, gflops), speedup);
      std::printf(" %s %.1fGF(%2.0f%%)", kernels::backend_name(b), gflops,
                  prof::percent_of_peak(mach, gflops));
      if (secs[bi] < secs[best_bi]) best_bi = bi;
      if (bi > 0) {
        log_speedup[bi] += std::log(speedup);
        if (speedup < 1.0) losses[bi].push_back(n);
      }
    }
    const double fu_gflops = flops / fu_s / 1e9;
    std::fprintf(out,
                 "}, \"best\": \"%s\", \"fused_unrolled\": {\"seconds\": "
                 "%.9e, \"gflops\": %.3f, \"pct_peak\": %.2f, "
                 "\"speedup_vs_scalar\": %.3f}}",
                 kernels::backend_name(backends[best_bi]), fu_s, fu_gflops,
                 prof::percent_of_peak(mach, fu_gflops), scalar_s / fu_s);
    std::printf("  best=%s  fused+unrolled %.1fGF\n",
                kernels::backend_name(backends[best_bi]), fu_gflops);
    if (n >= 5 && n <= 16) {
      log_batched_over_fu_5_16 += std::log(fu_s / batched_s);
      ++points_5_16;
    }
    ++sweep_points;
  }

  std::fprintf(out, "\n  ],\n  \"geomean_speedup_vs_scalar\": {");
  std::printf("geomean speedup vs scalar:");
  for (std::size_t bi = 1; bi < backends.size(); ++bi) {
    const double g = std::exp(log_speedup[bi] / sweep_points);
    std::fprintf(out, "%s\"%s\": %.3f", bi == 1 ? "" : ", ",
                 kernels::backend_name(backends[bi]), g);
    std::printf("  %s %.2fx", kernels::backend_name(backends[bi]), g);
  }
  const double batched_over_fu =
      std::exp(log_batched_over_fu_5_16 / points_5_16);
  std::fprintf(out,
               "},\n  \"geomean_batched_over_fused_unrolled_n5_16\": "
               "%.3f\n}\n",
               batched_over_fu);
  std::fclose(out);
  std::printf("\ngeomean batched speedup over fused+unrolled (N=5..16): "
              "%.2fx\n",
              batched_over_fu);
  std::printf("(json written to %s)\n", path.c_str());

  // Every dispatched backend exists purely as an optimization over the
  // scalar reference; a backend that loses across the sweep means the
  // build is misconfigured (e.g. a TU compiled without its intended flags)
  // and the numbers would silently misrepresent the kernels. Fail loudly,
  // naming the variant and each N where it lost.
  int rc = 0;
  for (std::size_t bi = 1; bi < backends.size(); ++bi) {
    const double g = std::exp(log_speedup[bi] / sweep_points);
    if (g < 1.0) {
      std::fprintf(stderr,
                   "FAIL: backend '%s' is slower than scalar across the "
                   "sweep (geomean %.3fx < 1.0); losing N:",
                   kernels::backend_name(backends[bi]), g);
      for (int n : losses[bi]) std::fprintf(stderr, " %d", n);
      std::fprintf(stderr, "\n");
      rc = 1;
    }
  }
  // The default backend must beat the paper's production loop form, or
  // the dispatch layer is not earning its place.
  if (batched_over_fu < 1.0) {
    std::fprintf(stderr,
                 "FAIL: batched backend loses to fused+unrolled on the "
                 "paper range N=5..16 (geomean %.3fx < 1.0)\n",
                 batched_over_fu);
    rc = 1;
  }
  return rc;
}

// --- default-selection smoke gate (--smoke) ---------------------------------
//
// CI check: on a few paper-range sizes, the default kernel backend
// (grad_dispatch) must not be slower than the scalar one. The 0.9 floor
// absorbs timer noise on a shared host; a genuine inversion (broken TU
// flags) lands far below it.
int run_smoke() {
  using namespace cmtbone;
  const std::vector<int> ns = {5, 8, 10, 13, 16};
  std::printf("=== default kernel selection smoke (isa %s) ===\n",
              kernels::isa_name());

  double log_sum = 0.0;
  for (int n : ns) {
    const int nel = std::max(4, 2000 / (n * n));
    const std::size_t epts = std::size_t(n) * n * n;
    util::SplitMix64 rng(13 * n + 5);
    std::vector<double> d(std::size_t(n) * n), u(epts * nel),
        scratch(epts * nel);
    for (double& x : d) x = rng.uniform(-1, 1);
    for (double& x : u) x = rng.uniform(-1, 1);
    const double scalar_s = best_of_sweeps([&] {
      const kernels::Backend b = kernels::Backend::kScalar;
      kernels::grad_backend(b, 0, d.data(), u.data(), scratch.data(), n, nel);
      kernels::grad_backend(b, 2, d.data(), u.data(), scratch.data(), n, nel);
    });
    const double default_s = best_of_sweeps([&] {
      kernels::grad_dispatch(0, d.data(), u.data(), scratch.data(), n, nel);
      kernels::grad_dispatch(2, d.data(), u.data(), scratch.data(), n, nel);
    });
    const double speedup = scalar_s / default_s;
    std::printf("  N=%2d default=%s  %.2fx vs scalar\n", n,
                kernels::backend_name(kernels::selected_backend(n)), speedup);
    log_sum += std::log(speedup);
  }
  const double geomean = std::exp(log_sum / double(ns.size()));
  std::printf("geomean default-selection speedup vs scalar: %.2fx\n",
              geomean);
  if (geomean < 0.9) {
    std::fprintf(stderr,
                 "FAIL: default kernel selection is slower than scalar "
                 "(geomean %.3fx < 0.9) — a mis-built backend\n",
                 geomean);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cmtbone;

  util::Cli cli(argc, argv);
  cli.describe("nel", "elements (default 200; paper used 1563)")
      .describe("steps", "kernel invocations (default 100; paper used 1000)")
      .describe("n", "GLL points per direction (default 10)")
      .describe("csv-dir", "also write result tables as CSV here")
      .describe("json",
                "sweep N=5..25 over every kernel backend and write JSON here")
      .describe("smoke",
                "gate default selection vs scalar on a few N (CI check)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  cli.reject_unknown();

  if (cli.has("smoke")) {
    return run_smoke();
  }
  if (cli.has("json")) {
    return run_backend_json_sweep(cli.get("json", "BENCH_kernels.json"));
  }

  const int nel = cli.get_int("nel", 200);
  const int steps = cli.get_int("steps", 100);
  const int n = cli.get_int("n", 10);
  const std::string csv_dir = cli.get("csv-dir", "");

  auto op = sem::Operators::build(n);
  const std::size_t pts = std::size_t(n) * n * n * nel;
  std::vector<double> u(pts), out(pts);
  util::SplitMix64 rng(99);
  for (double& x : u) x = rng.uniform(-1, 1);

  const char* names[] = {"dudr", "duds", "dudt"};
  Measurement opt[3], basic[3];
  for (int dir = 0; dir < 3; ++dir) {
    opt[dir] = measure(kernels::GradVariant::kFusedUnrolled, dir, op.d.data(),
                       u.data(), out.data(), n, nel, steps);
    basic[dir] = measure(kernels::GradVariant::kBasic, dir, op.d.data(),
                         u.data(), out.data(), n, nel, steps);
  }

  const char* unit = measured_cycle_unit(opt[0].hw);
  std::printf(
      "=== Figs. 5/6: derivative kernel loop transformations ===\n"
      "Nel=%d, N=%d, %d invocations per kernel; counters: %s\n"
      "cycle unit: %s\n\n",
      nel, n, steps,
      opt[0].hw ? "hardware (perf_event)"
                : "analytic model + prof::read_cycles()",
      unit);

  const std::string cycles_col = std::string("Total Cycles (") + unit + ")";
  util::Table with({"Derivatives", "Runtime (seconds)", "Total instructions",
                    cycles_col});
  with.set_title("Fig. 5: with loop transformations (fused + unrolled)");
  for (int dir : {2, 0, 1}) {  // paper order: dudt, dudr, duds
    with.add_row({names[dir], util::Table::num(opt[dir].seconds, 3),
                  std::to_string(opt[dir].instructions),
                  std::to_string(opt[dir].cycles)});
  }
  std::printf("%s\n", with.str().c_str());
  cmtbone::bench::write_csv(csv_dir, "fig5_with_transformations", with);

  util::Table without({"Derivatives", "Runtime (seconds)", "Total instructions",
                       cycles_col});
  without.set_title("Fig. 6: basic implementation (no loop transformations)");
  for (int dir : {2, 0, 1}) {
    without.add_row({names[dir], util::Table::num(basic[dir].seconds, 3),
                     std::to_string(basic[dir].instructions),
                     std::to_string(basic[dir].cycles)});
  }
  std::printf("%s\n", without.str().c_str());
  cmtbone::bench::write_csv(csv_dir, "fig6_basic_implementation", without);

  std::printf("Speedups from loop transformations (paper: dudt 2.31x, dudr "
              "1.03x, duds ~1x):\n");
  for (int dir : {2, 0, 1}) {
    std::printf("  %s: %.2fx\n", names[dir],
                basic[dir].seconds / opt[dir].seconds);
  }

  // Roofline context: where these kernels sit against the measured machine
  // roofs (see prof/roofline.hpp for the probes and the cache-residency
  // caveat).
  const prof::Machine& mach = prof::machine();
  const double flops = double(kernels::grad_flops(n, nel)) * steps;
  const double intensity =
      double(kernels::grad_flops(n, nel)) / double(kernels::grad_bytes(n, nel));
  std::printf(
      "\nRoofline (isa %s, peak %.1f GFLOP/s, mem %.1f GB/s, "
      "intensity %.2f flop/byte -> attainable %.1f GFLOP/s):\n",
      mach.isa.c_str(), mach.peak_gflops, mach.mem_gbytes, intensity,
      prof::attainable_gflops(mach, intensity));
  for (int dir : {2, 0, 1}) {
    const double gflops = flops / opt[dir].seconds / 1e9;
    std::printf("  %s (fused+unrolled): %6.2f GFLOP/s = %4.1f%% of peak\n",
                names[dir], gflops, prof::percent_of_peak(mach, gflops));
  }
  return 0;
}

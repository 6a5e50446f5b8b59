// §V text: google-benchmark N-sweep of the derivative kernels over the
// paper's order range ("with N ranging between 5 and 25") and the mxm /
// dealiasing building blocks — including every kernel-dispatch backend
// (kernels/dispatch.hpp). Each flop-counted benchmark also reports
// pct_peak: its GFLOP/s as a percentage of the measured machine compute
// roof (prof/roofline.hpp).

#include <benchmark/benchmark.h>

#include <vector>

#include "kernels/dispatch.hpp"
#include "kernels/gradient.hpp"
#include "kernels/mxm.hpp"
#include "kernels/tensor.hpp"
#include "prof/roofline.hpp"
#include "sem/operators.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::kernels::Backend;
using cmtbone::kernels::GradVariant;

// items_processed = flops (the historical convention of this sweep), plus
// the roofline counter: pct_peak reads directly as percent of the measured
// machine peak.
void set_flop_counters(benchmark::State& state, long long flops_per_iter) {
  const double total = double(state.iterations()) * double(flops_per_iter);
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
  const double peak = cmtbone::prof::machine().peak_gflops;
  if (peak > 0.0) {
    state.counters["pct_peak"] =
        benchmark::Counter(total * 100.0 / (peak * 1e9),
                           benchmark::Counter::kIsRate);
  }
}

struct Workload {
  cmtbone::sem::Operators op;
  std::vector<double> u, out;
  int nel;

  Workload(int n, int nel_in) : op(cmtbone::sem::Operators::build(n)), nel(nel_in) {
    const std::size_t pts = std::size_t(n) * n * n * nel;
    u.resize(pts);
    out.resize(pts);
    cmtbone::util::SplitMix64 rng(5);
    for (double& x : u) x = rng.uniform(-1, 1);
  }
};

void bench_grad(benchmark::State& state, GradVariant v, int dir) {
  const int n = int(state.range(0));
  const int nel = 32;
  Workload w(n, nel);
  for (auto _ : state) {
    switch (dir) {
      case 0:
        cmtbone::kernels::grad_r(v, w.op.d.data(), w.u.data(), w.out.data(), n,
                                 nel);
        break;
      case 1:
        cmtbone::kernels::grad_s(v, w.op.d.data(), w.u.data(), w.out.data(), n,
                                 nel);
        break;
      default:
        cmtbone::kernels::grad_t(v, w.op.d.data(), w.u.data(), w.out.data(), n,
                                 nel);
    }
    benchmark::DoNotOptimize(w.out.data());
  }
  set_flop_counters(state, cmtbone::kernels::grad_flops(n, nel));
}

void bench_grad_backend(benchmark::State& state, Backend b, int dir) {
  const int n = int(state.range(0));
  const int nel = 32;
  Workload w(n, nel);
  for (auto _ : state) {
    cmtbone::kernels::grad_backend(b, dir, w.op.d.data(), w.u.data(),
                                   w.out.data(), n, nel);
    benchmark::DoNotOptimize(w.out.data());
  }
  set_flop_counters(state, cmtbone::kernels::grad_flops(n, nel));
}

void GradBasicR(benchmark::State& s) { bench_grad(s, GradVariant::kBasic, 0); }
void GradBasicS(benchmark::State& s) { bench_grad(s, GradVariant::kBasic, 1); }
void GradBasicT(benchmark::State& s) { bench_grad(s, GradVariant::kBasic, 2); }
void GradTunedR(benchmark::State& s) {
  bench_grad(s, GradVariant::kFusedUnrolled, 0);
}
void GradTunedS(benchmark::State& s) {
  bench_grad(s, GradVariant::kFusedUnrolled, 1);
}
void GradTunedT(benchmark::State& s) {
  bench_grad(s, GradVariant::kFusedUnrolled, 2);
}
void GradSimdFmaR(benchmark::State& s) {
  bench_grad_backend(s, Backend::kSimdFma, 0);
}
void GradSimdFmaS(benchmark::State& s) {
  bench_grad_backend(s, Backend::kSimdFma, 1);
}
void GradSimdFmaT(benchmark::State& s) {
  bench_grad_backend(s, Backend::kSimdFma, 2);
}
void GradBatchedR(benchmark::State& s) {
  bench_grad_backend(s, Backend::kBatched, 0);
}
void GradBatchedS(benchmark::State& s) {
  bench_grad_backend(s, Backend::kBatched, 1);
}
void GradBatchedT(benchmark::State& s) {
  bench_grad_backend(s, Backend::kBatched, 2);
}

void Mxm(benchmark::State& state) {
  const int n = int(state.range(0));
  std::vector<double> a(std::size_t(n) * n), b(std::size_t(n) * n * n),
      c(std::size_t(n) * n * n);
  cmtbone::util::SplitMix64 rng(6);
  for (double& x : a) x = rng.uniform(-1, 1);
  for (double& x : b) x = rng.uniform(-1, 1);
  for (auto _ : state) {
    cmtbone::kernels::mxm(a.data(), n, b.data(), n, c.data(), n * n);
    benchmark::DoNotOptimize(c.data());
  }
  set_flop_counters(state, cmtbone::kernels::mxm_flops(n, n, n * n));
}

void DealiasRoundTrip(benchmark::State& state) {
  const int n = int(state.range(0));
  auto op = cmtbone::sem::Operators::build(n);
  const int m = op.m;
  std::vector<double> u(std::size_t(n) * n * n),
      fine(std::size_t(m) * m * m), back(u.size()),
      work(cmtbone::kernels::tensor_work_size(m, m));
  cmtbone::util::SplitMix64 rng(7);
  for (double& x : u) x = rng.uniform(-1, 1);
  for (auto _ : state) {
    cmtbone::kernels::dealias_roundtrip(op.interp.data(), op.interp_t.data(),
                                        m, n, u.data(), fine.data(),
                                        back.data(), work.data());
    benchmark::DoNotOptimize(back.data());
  }
}

}  // namespace

BENCHMARK(GradBasicR)->DenseRange(5, 25, 5);
BENCHMARK(GradBasicS)->DenseRange(5, 25, 5);
BENCHMARK(GradBasicT)->DenseRange(5, 25, 5);
BENCHMARK(GradTunedR)->DenseRange(5, 25, 5);
BENCHMARK(GradTunedS)->DenseRange(5, 25, 5);
BENCHMARK(GradTunedT)->DenseRange(5, 25, 5);
BENCHMARK(GradSimdFmaR)->DenseRange(5, 25, 5);
BENCHMARK(GradSimdFmaS)->DenseRange(5, 25, 5);
BENCHMARK(GradSimdFmaT)->DenseRange(5, 25, 5);
BENCHMARK(GradBatchedR)->DenseRange(5, 25, 5);
BENCHMARK(GradBatchedS)->DenseRange(5, 25, 5);
BENCHMARK(GradBatchedT)->DenseRange(5, 25, 5);
BENCHMARK(Mxm)->DenseRange(5, 25, 5);
BENCHMARK(DealiasRoundTrip)->DenseRange(5, 25, 10);

BENCHMARK_MAIN();

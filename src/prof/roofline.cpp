#include "prof/roofline.hpp"

#include <chrono>
#include <vector>

#include "kernels/simd_backend.hpp"

namespace cmtbone::prof {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Stream-triad bandwidth: a[i] = b[i] + s*c[i] over three arrays well past
// any cache (3 x 16 MB). Best of three timed passes after one warmup;
// bytes counted as two reads plus one write per element (write-allocate
// traffic not charged, matching STREAM convention).
double measure_triad_gbytes() {
  constexpr std::size_t kCount = 2u << 20;  // 2M doubles per array
  std::vector<double> a(kCount, 0.0), b(kCount, 1.0), c(kCount, 2.0);
  const double s = 0.42;
  auto pass = [&] {
    for (std::size_t i = 0; i < kCount; ++i) a[i] = b[i] + s * c[i];
  };
  pass();
  double best_sec = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    const double t0 = now_seconds();
    pass();
    const double sec = now_seconds() - t0;
    if (sample == 0 || sec < best_sec) best_sec = sec;
  }
  // Keep the result live so the passes cannot be dropped.
  static volatile double g_sink;
  g_sink = a[kCount / 2];
  (void)g_sink;
  const double bytes = 3.0 * sizeof(double) * double(kCount);
  return best_sec > 0.0 ? bytes / best_sec / 1e9 : 0.0;
}

Machine measure() {
  Machine m;
  m.isa = kernels::simd_backend_best()->name;
  m.peak_gflops = kernels::simd_backend_best()->measure_peak_gflops();
  m.mem_gbytes = measure_triad_gbytes();
  return m;
}

}  // namespace

const Machine& machine() {
  static const Machine m = measure();
  return m;
}

double attainable_gflops(const Machine& m, double flops_per_byte) {
  const double bw_roof = m.mem_gbytes * flops_per_byte;
  return bw_roof < m.peak_gflops ? bw_roof : m.peak_gflops;
}

double percent_of_peak(const Machine& m, double measured_gflops) {
  return m.peak_gflops > 0.0 ? 100.0 * measured_gflops / m.peak_gflops : 0.0;
}

}  // namespace cmtbone::prof

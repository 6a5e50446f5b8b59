#include "kernels/vecops.hpp"

namespace cmtbone::kernels {

namespace {

// 4-wide generic vectors: lowered to the widest available hardware vectors
// (double-pumped SSE2 under the baseline flags) with unaligned moves, same
// scheme as the simd_kernels TUs. Elementwise use keeps bits; the dot's
// shape is fixed at 4 lanes regardless of what the hardware provides, so
// its (reordered) result is identical on every machine.
typedef double V4 __attribute__((vector_size(32)));

inline V4 load4(const double* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(double* p, V4 v) { __builtin_memcpy(p, &v, sizeof v); }

// Lane copies, not 0 + x, so a -0.0 stays -0.0.
inline V4 bcast4(double x) { return V4{x, x, x, x}; }

}  // namespace

void pointwise_scale(double* x, const double* s, std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    store4(x + i, load4(x + i) * load4(s + i));
  }
  for (; i < count; ++i) x[i] *= s[i];
}

void ax_combine(double* w, const double* s, const double* m, const double* u,
                double h1, double h2, std::size_t count) {
  const V4 v1 = bcast4(h1), v2 = bcast4(h2);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    store4(w + i, v1 * (load4(w + i) + load4(s + i)) +
                      (v2 * load4(m + i)) * load4(u + i));
  }
  for (; i < count; ++i) {
    w[i] = h1 * (w[i] + s[i]) + h2 * m[i] * u[i];
  }
}

void ssp_stage(double* un, const double* u0, const double* up, const double* r,
               double a, double b, double dt, std::size_t count) {
  const V4 va = bcast4(a), vb = bcast4(b), vdt = bcast4(dt);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    store4(un + i,
           va * load4(u0 + i) + vb * (load4(up + i) + vdt * load4(r + i)));
  }
  for (; i < count; ++i) un[i] = a * u0[i] + b * (up[i] + dt * r[i]);
}

void rk4_stage(double* acc, double* ustage, const double* u, const double* k,
               double h, bool first, std::size_t count) {
  const V4 vh = bcast4(h), two = bcast4(2.0);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const V4 vk = load4(k + i);
    store4(acc + i, first ? vk : load4(acc + i) + two * vk);
    store4(ustage + i, load4(u + i) + vh * vk);
  }
  for (; i < count; ++i) {
    acc[i] = first ? k[i] : acc[i] + 2.0 * k[i];
    ustage[i] = u[i] + h * k[i];
  }
}

void rk4_finish(double* u, const double* acc, const double* k, double w,
                std::size_t count) {
  const V4 vw = bcast4(w);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    store4(u + i, load4(u + i) + vw * (load4(acc + i) + load4(k + i)));
  }
  for (; i < count; ++i) u[i] += w * (acc[i] + k[i]);
}

double weighted_dot(const double* a, const double* b, const double* w,
                    std::size_t count) {
  // Fixed shape: four independent lane accumulators, folded pairwise, then
  // the scalar tail ascending. No width dependence, no data dependence —
  // the same input always reduces through the same operation tree.
  V4 acc = V4{};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    acc += load4(a + i) * load4(b + i) * load4(w + i);
  }
  double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; i < count; ++i) sum += a[i] * b[i] * w[i];
  return sum;
}

}  // namespace cmtbone::kernels

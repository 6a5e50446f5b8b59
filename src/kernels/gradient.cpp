#include "kernels/gradient.hpp"

#include <cstddef>

#include "kernels/dispatch.hpp"

namespace cmtbone::kernels {

const char* variant_name(GradVariant v) {
  switch (v) {
    case GradVariant::kBasic: return "basic";
    case GradVariant::kFused: return "fused";
    case GradVariant::kUnrolled: return "unrolled";
    case GradVariant::kFusedUnrolled: return "fused+unrolled";
    case GradVariant::kDispatch: return "dispatch";
  }
  return "?";
}

const std::vector<GradVariant>& all_variants() {
  static const std::vector<GradVariant> v = {
      GradVariant::kBasic, GradVariant::kFused, GradVariant::kUnrolled,
      GradVariant::kFusedUnrolled, GradVariant::kDispatch};
  return v;
}

namespace {

// ---- basic: plain loop nests, no transformations ---------------------------
// These transliterate the "basic implementation" of the paper's Fig. 6.

void grad_r_basic(const double* d, const double* u, double* out, int n) {
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        double s = 0.0;
        for (int l = 0; l < n; ++l) {
          s += d[i + std::size_t(n) * l] * u[l + std::size_t(n) * (j + std::size_t(n) * k)];
        }
        out[i + std::size_t(n) * (j + std::size_t(n) * k)] = s;
      }
    }
  }
}

void grad_s_basic(const double* d, const double* u, double* out, int n) {
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        double s = 0.0;
        for (int l = 0; l < n; ++l) {
          s += d[j + std::size_t(n) * l] * u[i + std::size_t(n) * (l + std::size_t(n) * k)];
        }
        out[i + std::size_t(n) * (j + std::size_t(n) * k)] = s;
      }
    }
  }
}

void grad_t_basic(const double* d, const double* u, double* out, int n) {
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        double s = 0.0;
        for (int l = 0; l < n; ++l) {
          s += d[k + std::size_t(n) * l] * u[i + std::size_t(n) * (j + std::size_t(n) * l)];
        }
        out[i + std::size_t(n) * (j + std::size_t(n) * k)] = s;
      }
    }
  }
}

// ---- fused: outer loops collapsed where the layout allows ------------------
// r: (j,k) fuse into one loop over the n^2 contiguous columns.
// t: (i,j) fuse into one loop over the n^2 contiguous rows of each k-slab.
// s: the middle-index contraction forbids fusion (paper §V), so fall back.

void grad_r_fused(const double* d, const double* u, double* out, int n) {
  const int n2 = n * n;
  for (int jk = 0; jk < n2; ++jk) {
    const double* __restrict ucol = u + std::size_t(jk) * n;
    double* __restrict ocol = out + std::size_t(jk) * n;
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int l = 0; l < n; ++l) s += d[i + std::size_t(n) * l] * ucol[l];
      ocol[i] = s;
    }
  }
}

void grad_t_fused(const double* d, const double* u, double* out, int n) {
  const int n2 = n * n;
  for (int k = 0; k < n; ++k) {
    const double* __restrict drow = d + k;  // D(k, :) strided by n
    double* __restrict oslab = out + std::size_t(k) * n2;
    for (int ij = 0; ij < n2; ++ij) {
      double s = 0.0;
      for (int l = 0; l < n; ++l) {
        s += drow[std::size_t(n) * l] * u[ij + std::size_t(l) * n2];
      }
      oslab[ij] = s;
    }
  }
}

// ---- unrolled: compile-time N, inner contraction fully unrolled ------------
// The paper's production kernels completely unroll the innermost loop for
// all three derivatives; with N a template parameter the unroll pragma
// peels the whole contraction.

template <int N>
void grad_r_tpl(const double* __restrict d, const double* __restrict u,
                double* __restrict out, bool fused) {
  if (fused) {
    for (int jk = 0; jk < N * N; ++jk) {
      const double* __restrict ucol = u + std::size_t(jk) * N;
      double* __restrict ocol = out + std::size_t(jk) * N;
      for (int i = 0; i < N; ++i) {
        double s = 0.0;
#pragma GCC unroll 32
        for (int l = 0; l < N; ++l) s += d[i + N * l] * ucol[l];
        ocol[i] = s;
      }
    }
  } else {
    for (int k = 0; k < N; ++k) {
      for (int j = 0; j < N; ++j) {
        const double* __restrict ucol = u + N * (j + std::size_t(N) * k);
        double* __restrict ocol = out + N * (j + std::size_t(N) * k);
        for (int i = 0; i < N; ++i) {
          double s = 0.0;
#pragma GCC unroll 32
          for (int l = 0; l < N; ++l) s += d[i + N * l] * ucol[l];
          ocol[i] = s;
        }
      }
    }
  }
}

template <int N>
void grad_s_tpl(const double* __restrict d, const double* __restrict u,
                double* __restrict out, bool /*fused: not fusable*/) {
  for (int k = 0; k < N; ++k) {
    const double* __restrict uslab = u + std::size_t(k) * N * N;
    double* __restrict oslab = out + std::size_t(k) * N * N;
    for (int j = 0; j < N; ++j) {
      for (int i = 0; i < N; ++i) {
        double s = 0.0;
#pragma GCC unroll 32
        for (int l = 0; l < N; ++l) s += d[j + N * l] * uslab[i + N * l];
        oslab[i + N * j] = s;
      }
    }
  }
}

template <int N>
void grad_t_tpl(const double* __restrict d, const double* __restrict u,
                double* __restrict out, bool fused) {
  if (fused) {
    for (int k = 0; k < N; ++k) {
      double* __restrict oslab = out + std::size_t(k) * N * N;
      for (int ij = 0; ij < N * N; ++ij) {
        double s = 0.0;
#pragma GCC unroll 32
        for (int l = 0; l < N; ++l) s += d[k + N * l] * u[ij + std::size_t(l) * N * N];
        oslab[ij] = s;
      }
    }
  } else {
    for (int k = 0; k < N; ++k) {
      for (int j = 0; j < N; ++j) {
        double* __restrict orow = out + N * (j + std::size_t(N) * k);
        const double* __restrict urow = u + std::size_t(j) * N;
        for (int i = 0; i < N; ++i) {
          double s = 0.0;
#pragma GCC unroll 32
          for (int l = 0; l < N; ++l) s += d[k + N * l] * urow[i + std::size_t(l) * N * N];
          orow[i] = s;
        }
      }
    }
  }
}

// ---- dispatch ---------------------------------------------------------------

enum class Dir { kR, kS, kT };

template <int N>
void grad_elem_tpl(Dir dir, const double* d, const double* u, double* out,
                   bool fused) {
  switch (dir) {
    case Dir::kR: grad_r_tpl<N>(d, u, out, fused); break;
    case Dir::kS: grad_s_tpl<N>(d, u, out, fused); break;
    case Dir::kT: grad_t_tpl<N>(d, u, out, fused); break;
  }
}

/// Unrolled dispatch over the paper's N range (5..25) plus the small orders
/// the tests use. Returns false when n has no specialization (caller falls
/// back to the non-template kernels).
bool grad_elem_unrolled(Dir dir, const double* d, const double* u, double* out,
                        int n, bool fused) {
  switch (n) {
#define CMTBONE_CASE(N) \
  case N: grad_elem_tpl<N>(dir, d, u, out, fused); return true;
    CMTBONE_CASE(2)
    CMTBONE_CASE(3)
    CMTBONE_CASE(4)
    CMTBONE_CASE(5)
    CMTBONE_CASE(6)
    CMTBONE_CASE(7)
    CMTBONE_CASE(8)
    CMTBONE_CASE(9)
    CMTBONE_CASE(10)
    CMTBONE_CASE(11)
    CMTBONE_CASE(12)
    CMTBONE_CASE(13)
    CMTBONE_CASE(14)
    CMTBONE_CASE(15)
    CMTBONE_CASE(16)
    CMTBONE_CASE(17)
    CMTBONE_CASE(18)
    CMTBONE_CASE(19)
    CMTBONE_CASE(20)
    CMTBONE_CASE(21)
    CMTBONE_CASE(22)
    CMTBONE_CASE(23)
    CMTBONE_CASE(24)
    CMTBONE_CASE(25)
#undef CMTBONE_CASE
    default: return false;
  }
}

void grad_elem(Dir dir, GradVariant v, const double* d, const double* u,
               double* out, int n) {
  switch (v) {
    case GradVariant::kBasic:
      switch (dir) {
        case Dir::kR: grad_r_basic(d, u, out, n); return;
        case Dir::kS: grad_s_basic(d, u, out, n); return;
        case Dir::kT: grad_t_basic(d, u, out, n); return;
      }
      return;
    case GradVariant::kFused:
      switch (dir) {
        case Dir::kR: grad_r_fused(d, u, out, n); return;
        case Dir::kS: grad_s_basic(d, u, out, n); return;  // not fusable
        case Dir::kT: grad_t_fused(d, u, out, n); return;
      }
      return;
    case GradVariant::kUnrolled:
      if (grad_elem_unrolled(dir, d, u, out, n, /*fused=*/false)) return;
      grad_elem(dir, GradVariant::kBasic, d, u, out, n);
      return;
    case GradVariant::kFusedUnrolled:
      if (grad_elem_unrolled(dir, d, u, out, n, /*fused=*/true)) return;
      grad_elem(dir, GradVariant::kFused, d, u, out, n);
      return;
    case GradVariant::kDispatch:
      grad_dispatch(int(dir), d, u, out, n, /*nel=*/1);
      return;
  }
}

void grad_field(Dir dir, GradVariant v, const double* d, const double* u,
                double* out, int n, int nel) {
  if (v == GradVariant::kDispatch) {
    grad_dispatch(int(dir), d, u, out, n, nel);
    return;
  }
  const std::size_t stride = std::size_t(n) * n * n;
  for (int e = 0; e < nel; ++e) {
    grad_elem(dir, v, d, u + e * stride, out + e * stride, n);
  }
}

}  // namespace

void grad_r(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel) {
  grad_field(Dir::kR, v, d, u, out, n, nel);
}

void grad_s(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel) {
  grad_field(Dir::kS, v, d, u, out, n, nel);
}

void grad_t(GradVariant v, const double* d, const double* u, double* out,
            int n, int nel) {
  grad_field(Dir::kT, v, d, u, out, n, nel);
}

void grad3(GradVariant v, const double* d, const double* u, double* ur,
           double* us, double* ut, int n, int nel) {
  grad_r(v, d, u, ur, n, nel);
  grad_s(v, d, u, us, n, nel);
  grad_t(v, d, u, ut, n, nel);
}

long long grad_instruction_estimate(GradVariant v, int n, int nel) {
  const long long n3 = 1LL * n * n * n;
  const long long n4 = n3 * n;
  // Floating work and memory traffic are variant-independent:
  //   n^4 fmadds (counted as mul+add), n^4 loads of d and u, n^3 stores.
  long long ops = 2 * n4 + 2 * n4 + n3;
  // Loop-control overhead differs: every non-unrolled inner iteration costs
  // roughly an increment+compare+branch plus index arithmetic; fusing the
  // outer loops removes one level of bookkeeping per column.
  long long overhead = 0;
  switch (v) {
    case GradVariant::kBasic: overhead = 3 * n4 + 4 * n3; break;
    case GradVariant::kFused: overhead = 3 * n4 + 2 * n3; break;
    case GradVariant::kUnrolled: overhead = 4 * n3; break;
    case GradVariant::kFusedUnrolled: overhead = 2 * n3; break;
    // Dispatch (SIMD kernels): unrolled contraction, register
    // accumulators, one store per output and no zero-fill pass.
    case GradVariant::kDispatch: overhead = n3; break;
  }
  return (ops + overhead) * nel;
}

}  // namespace cmtbone::kernels

#pragma once
// Measured roofline model for kernel efficiency reporting.
//
// The benches already count flops and bytes per kernel; what was missing is
// the machine side of the ratio. This module measures, once per process:
//
//   peak_gflops   register-resident multiply-add throughput of the widest
//                 runnable SIMD backend (kernels/simd_backend.hpp probe) —
//                 the compute roof
//   mem_gbytes    sustained main-memory bandwidth from a stream-triad
//                 sweep over arrays far larger than cache — the memory roof
//
// and exposes the standard roofline: a kernel with arithmetic intensity I
// (flops/byte of main-memory traffic) can at best reach
// min(peak_gflops, mem_gbytes * I).
//
// Caveat the benches inherit: their working sets are sized like the
// solver's per-rank element batches, which largely fit in cache, so a
// measured kernel can legitimately exceed the DRAM-bandwidth ceiling —
// percent-of-peak (the compute roof) is the honest headline number, and
// the attainable ceiling is context.

#include <string>

namespace cmtbone::prof {

struct Machine {
  double peak_gflops = 0.0;
  double mem_gbytes = 0.0;  // GB/s
  std::string isa;          // kernels::isa_name() at measurement time
};

/// Measured once at first use, then cached for the process.
const Machine& machine();

/// Roofline ceiling for arithmetic intensity `flops_per_byte`.
double attainable_gflops(const Machine& m, double flops_per_byte);

/// measured/peak in percent (compute roof).
double percent_of_peak(const Machine& m, double measured_gflops);

}  // namespace cmtbone::prof

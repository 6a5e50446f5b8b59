#include "netmodel/loggp.hpp"

#include <algorithm>
#include <cmath>

namespace cmtbone::netmodel {

LogGPParams qdr_infiniband() {
  // Mellanox Infiniscale IV QDR (the paper's Compton testbed): ~1.3 us
  // latency, ~4 GB/s effective per-link bandwidth.
  return {"qdr-infiniband", 1.3e-6, 4.0e-7, 4.0e9, 2.0e9};
}

LogGPParams ethernet_10g() {
  return {"10g-ethernet", 1.2e-5, 2.0e-6, 1.1e9, 2.0e9};
}

LogGPParams notional_exascale() {
  // A notional future fabric: sub-microsecond latency, 25 GB/s injection.
  return {"notional-exascale", 4.0e-7, 1.0e-7, 2.5e10, 8.0e9};
}

namespace {
double message_cost(const LogGPParams& m, double bytes) {
  return m.latency + 2.0 * m.overhead + bytes * m.gap_per_byte();
}
}  // namespace

double predict_pairwise(const LogGPParams& machine,
                        const ExchangeShape& shape) {
  if (shape.neighbors == 0) return 0.0;
  // All neighbor messages are posted at once: overheads serialize on the
  // host, wire time overlaps except the largest message.
  const double bytes_each =
      double(shape.pairwise_bytes) / double(shape.neighbors);
  return double(shape.neighbors) * 2.0 * machine.overhead + machine.latency +
         bytes_each * machine.gap_per_byte() +
         double(shape.pairwise_bytes) / machine.compute_rate / 8.0;
}

double predict_crystal(const LogGPParams& machine, const ExchangeShape& shape) {
  if (shape.ranks <= 1) return 0.0;
  const int stages = int(std::ceil(std::log2(double(shape.ranks))));
  // Each gs_op makes two routing passes (to owners and back); a pass moves
  // roughly the injected records through every stage.
  const double pass_bytes =
      double(shape.crystal_records) * double(shape.record_bytes);
  const double per_stage = message_cost(machine, pass_bytes);
  const double owner_reduce =
      double(shape.crystal_records) / machine.compute_rate;
  return 2.0 * stages * per_stage + owner_reduce;
}

double predict_allreduce(const LogGPParams& machine,
                         const ExchangeShape& shape) {
  if (shape.ranks <= 1) return 0.0;
  const int stages = int(std::ceil(std::log2(double(shape.ranks))));
  // Binomial reduce + broadcast of the whole big vector, plus the local
  // elementwise combine at every stage of the reduction.
  const double combine =
      double(shape.big_vector_bytes) / 8.0 / machine.compute_rate;
  return 2.0 * stages * message_cost(machine, double(shape.big_vector_bytes)) +
         stages * combine;
}

const char* Prediction::best() const {
  double m = std::min({pairwise, crystal, allreduce});
  if (m == pairwise) return "pairwise exchange";
  if (m == crystal) return "crystal router";
  return "all_reduce";
}

Prediction predict_all(const LogGPParams& machine, const ExchangeShape& shape) {
  return {predict_pairwise(machine, shape), predict_crystal(machine, shape),
          predict_allreduce(machine, shape)};
}

}  // namespace cmtbone::netmodel

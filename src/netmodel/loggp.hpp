#pragma once
// LogGP-style analytic network model for the gather-scatter exchange
// algorithms.
//
// The paper's §VI motivates this: "To perform network simulations we also
// need appropriate latency and bandwidth models for the machines and data
// transfer characteristics for the application." This module predicts the
// per-gs_op cost of the three exchange algorithms on a parameterized
// machine, so notional future systems can be explored analytically and the
// pairwise/crystal-router crossover located without running at scale.
//
// Model: a message of m bytes between two ranks costs  L + 2o + G*m ;
// k concurrent messages from one rank serialize only their overhead o.
//
// The model is an analysis tool: the benches feed it a live handle's
// gs::GatherScatter::exchange_shape() (netmodel_validation) or synthetic
// shapes at scale (netmodel_crossover, atscale_study). The runtime itself
// picks its gs method by timing all three (gs::Method::kAuto, §VI).

#include <string>
#include <vector>

namespace cmtbone::netmodel {

struct LogGPParams {
  std::string name;
  double latency = 1e-6;        // L: end-to-end latency (s)
  double overhead = 5e-7;       // o: per-message CPU overhead (s)
  double bandwidth = 4.0e9;     // 1/G: bytes per second
  double compute_rate = 1.0e9;  // local reduce rate (values/s), for owner-side work

  double gap_per_byte() const { return 1.0 / bandwidth; }
};

/// Machine presets.
LogGPParams qdr_infiniband();    // like the paper's Compton testbed fabric
LogGPParams ethernet_10g();      // slower commodity cluster
LogGPParams notional_exascale(); // §VI "notional future system"

/// Structural description of one rank's gs exchange (from the gs handle).
struct ExchangeShape {
  int ranks = 0;                 // P
  int neighbors = 0;             // pairwise partners of this rank
  long long pairwise_bytes = 0;  // bytes this rank sends per pairwise exec
  long long crystal_records = 0; // records this rank injects per crystal pass
  long long record_bytes = 16;   // sizeof(id) + sizeof(value)
  long long big_vector_bytes = 0;  // allreduce method vector size
};

/// Predicted seconds per gs_op for each algorithm.
double predict_pairwise(const LogGPParams& machine, const ExchangeShape& shape);
double predict_crystal(const LogGPParams& machine, const ExchangeShape& shape);
double predict_allreduce(const LogGPParams& machine, const ExchangeShape& shape);

struct Prediction {
  double pairwise = 0, crystal = 0, allreduce = 0;
  const char* best() const;
};
Prediction predict_all(const LogGPParams& machine, const ExchangeShape& shape);

/// Sweep P for a fixed per-rank workload and report the first P (power of
/// two) at which the crystal router beats pairwise exchange; 0 if never
/// within `max_ranks`. `shape_of(P)` supplies the per-rank shape at scale P.
template <class ShapeFn>
int crossover_ranks(const LogGPParams& machine, int max_ranks,
                    ShapeFn&& shape_of) {
  for (int p = 2; p <= max_ranks; p *= 2) {
    ExchangeShape s = shape_of(p);
    if (predict_crystal(machine, s) < predict_pairwise(machine, s)) return p;
  }
  return 0;
}

}  // namespace cmtbone::netmodel

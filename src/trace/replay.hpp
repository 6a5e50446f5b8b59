#pragma once
// Trace replay: behavioral emulation of a recorded run on a notional
// machine.
//
// Given a Trace recorded on the live fabric and a LogGP machine model, the
// replayer re-executes the event sequence in virtual time: compute gaps
// between events scale with a node-speed factor, each message costs
// overhead at the sender and arrives after latency + bytes/bandwidth, a
// receive blocks until its matching message arrives, and collectives
// synchronize all ranks and charge an analytic cost. The result predicts
// the run's makespan on the modeled machine — the fast architecture
// design-space exploration of the paper's §III-C, in the spirit of
// SST-style co-design simulation (§II).

#include <string>
#include <vector>

#include "netmodel/loggp.hpp"
#include "trace/trace.hpp"

namespace cmtbone::trace {

struct ReplayConfig {
  netmodel::LogGPParams machine;
  /// Virtual-node speed relative to the recording machine: compute gaps are
  /// multiplied by this (0.5 = twice as fast a node).
  double compute_scale = 1.0;
};

struct ReplayResult {
  double makespan = 0.0;               // predicted wall time
  std::vector<double> rank_finish;     // per-rank completion time
  double total_compute = 0.0;          // summed scaled compute gaps
  double total_comm = 0.0;             // summed send/recv/collective costs
  double total_blocked = 0.0;          // time spent stalled on unmatched recvs
  std::size_t messages = 0;
  long long bytes = 0;
};

/// Replay `trace` on the modeled machine. Throws std::runtime_error if the
/// trace is causally inconsistent (a receive whose message is never sent,
/// mismatched collective sequences — including a rank finishing before a
/// collective or ranks naming different collectives at one rendezvous).
/// An empty trace replays to an all-zero result.
///
/// Collectives are modeled as rendezvous of every rank, as the runtime
/// has one communicator.
ReplayResult replay(const Trace& trace, const ReplayConfig& config);

/// Analytic cost charged for one whole-communicator collective during
/// replay: binomial sweeps for the tree collectives, serialized per-partner
/// overhead for the all-to-alls, a P-1 hop chain for MPI_Scan, and one
/// binomial sweep for anything unrecognized. Exposed so the cost formulas
/// can be pinned by unit tests.
double collective_cost(const std::string& name, long long bytes, int nranks,
                       const netmodel::LogGPParams& machine);

}  // namespace cmtbone::trace

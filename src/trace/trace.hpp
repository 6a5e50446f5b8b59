#pragma once
// Communication traces for behavioral emulation.
//
// The paper's co-design strategy (§III-C) evaluates notional exascale
// architectures by emulating application behavior on candidate machine
// models. This module records what a run actually did — per rank, the
// ordered sequence of sends, receive completions, and collectives, with
// the compute gaps between them — so the replay simulator (trace/replay.hpp)
// can re-time the same behavior on a different machine.

#include <cstdint>
#include <string>
#include <vector>

namespace cmtbone::trace {

enum class EventKind {
  kSend,        // eager send: peer = destination, bytes = payload
  kRecv,        // receive completion: peer = source, bytes = payload
  kCollective,  // whole-communicator operation (replayed analytically)
};

struct Event {
  EventKind kind = EventKind::kSend;
  double t_start = 0.0;  // seconds since recorder start (original machine)
  double t_end = 0.0;
  int peer = -1;       // global rank of the partner (p2p only)
  int tag = 0;         // p2p tag (matching key during replay)
  long long bytes = 0;
  std::string collective;  // collective name (kCollective only)
};

/// One rank's ordered event list.
using RankTrace = std::vector<Event>;

/// A full job trace.
struct Trace {
  std::vector<RankTrace> ranks;

  int nranks() const { return int(ranks.size()); }
  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& r : ranks) n += r.size();
    return n;
  }
  /// Wall time of the recorded run (max event end time).
  double recorded_makespan() const;
};

/// Recorder the comm runtime reports into: per-rank event vectors (each
/// written only by its own rank thread, so recording is lock-free),
/// timestamps relative to construction.
class Recorder {
 public:
  explicit Recorder(int nranks);

  int nranks() const { return trace_.nranks(); }

  /// Trace clock (seconds); all event timestamps come from this.
  double now() const;
  void on_send(int rank, int dest, int tag, long long bytes, double t_start,
               double t_end);
  void on_recv(int rank, int source, int tag, long long bytes, double t_start,
               double t_end);
  void on_collective(int rank, const char* name, long long bytes,
                     double t_start, double t_end);

  /// Steal the recorded trace (recorder becomes empty).
  Trace take();

 private:
  Trace trace_;
  std::int64_t epoch_ns_ = 0;
};

}  // namespace cmtbone::trace

#pragma once
// Job launcher: spawns one thread per rank and runs the user body with a
// world communicator, the analogue of mpirun + MPI_Init.
//
// Every rank body runs to completion before run() returns. If a rank throws,
// the job is aborted (blocked peers unwind via JobAborted) and the first
// real exception is rethrown on the caller's thread.

#include <functional>
#include <vector>

#include "comm/comm.hpp"
#include "prof/callprof.hpp"
#include "prof/recovery.hpp"

namespace cmtbone::comm {

struct RunOptions {
  /// If non-null, receives each rank's profile, indexed by rank: its call
  /// tree (gprof proxy), the comm operations counted per region (mpiP
  /// proxy) and the rank body's wall time.
  std::vector<prof::CallProfile>* call_profiles = nullptr;
  /// Record a communication trace for behavioral emulation (trace/replay).
  /// Construct the recorder with at least the job's rank count.
  trace::Recorder* tracer = nullptr;
  /// Attach a chaos engine: seeded schedule perturbation and fault
  /// injection threaded through the mailbox and collective trees. The
  /// caller owns the engine (construct it with the job's rank count) and
  /// can read its schedule digest after run() returns.
  chaos::ChaosEngine* chaos = nullptr;
  /// Accumulate failure-detection latencies (how long each surviving rank
  /// took to observe a dead peer) into these stats after the job joins.
  prof::RecoveryStats* recovery = nullptr;
  /// Epoch label carried by RankFailed on survivors (the recovery
  /// supervisor sets it to the attempt's restore epoch; -1 = no recovery).
  long long epoch = -1;
};

/// Run `body` on `nranks` ranks. Blocks until all ranks finish.
void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& options = {});

}  // namespace cmtbone::comm

// Trace recording and behavioral-emulation replay.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::netmodel::LogGPParams;
using cmtbone::trace::Event;
using cmtbone::trace::EventKind;
using cmtbone::trace::Recorder;
using cmtbone::trace::ReplayConfig;
using cmtbone::trace::Trace;

LogGPParams simple_machine(double latency, double overhead, double bandwidth) {
  LogGPParams m;
  m.name = "test";
  m.latency = latency;
  m.overhead = overhead;
  m.bandwidth = bandwidth;
  return m;
}

Event make_event(EventKind kind, double t0, double t1, int peer, int tag,
                 long long bytes) {
  Event e;
  e.kind = kind;
  e.t_start = t0;
  e.t_end = t1;
  e.peer = peer;
  e.tag = tag;
  e.bytes = bytes;
  return e;
}

// --- hand-built traces with known analytic makespans ---------------------------

TEST(Replay, SingleMessageCostIsLatencyPlusWire) {
  // Rank 0 sends 1000 B at t=0; rank 1 receives. No compute gaps.
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0, 0, 1, 5, 1000));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 5, 1000));

  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  auto result = cmtbone::trace::replay(trace, cfg);
  // Sender: o. Message arrives at o + L + m/BW. Receiver: + o.
  double expected = 1e-7 + 1e-6 + 1000.0 / 1e9 + 1e-7;
  EXPECT_NEAR(result.makespan, expected, 1e-12);
  EXPECT_EQ(result.messages, 1u);
  EXPECT_EQ(result.bytes, 1000);
}

TEST(Replay, ComputeGapsScaleWithNodeSpeed) {
  // One rank, pure compute: two events separated by a 2 ms gap.
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0.000, 0.000, 1, 1, 8));
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0.002, 0.002, 1, 1, 8));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 1, 8));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 1, 8));

  ReplayConfig cfg;
  cfg.machine = simple_machine(0, 0, 1e18);  // free network isolates compute
  cfg.compute_scale = 1.0;
  double full = cmtbone::trace::replay(trace, cfg).makespan;
  cfg.compute_scale = 0.25;
  double fast = cmtbone::trace::replay(trace, cfg).makespan;
  EXPECT_NEAR(full, 0.002, 1e-9);
  EXPECT_NEAR(fast, 0.0005, 1e-9);
}

TEST(Replay, ReceiverBlocksUntilMessageArrives) {
  // Rank 1 wants the message immediately, but rank 0 computes 1 ms first.
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[0].push_back(
      make_event(EventKind::kSend, 0.001, 0.001, 1, 2, 100));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 2, 100));

  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 0, 1e12);
  auto result = cmtbone::trace::replay(trace, cfg);
  EXPECT_GT(result.total_blocked, 0.0009);
  EXPECT_NEAR(result.makespan, 0.001 + 1e-6 + 100.0 / 1e12, 1e-9);
}

TEST(Replay, FifoMatchingPreservesMessageOrder) {
  // Two same-tag messages: first sent must match first received.
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0, 0, 1, 3, 10));
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0, 0, 1, 3, 1000000));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 3, 10));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 3, 1000000));

  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  EXPECT_NO_THROW(cmtbone::trace::replay(trace, cfg));
}

TEST(Replay, CollectiveSynchronizesAllRanks) {
  // Rank 1 computes 5 ms before the barrier; everyone leaves together.
  Trace trace;
  trace.ranks.resize(3);
  for (int r = 0; r < 3; ++r) {
    Event e;
    e.kind = EventKind::kCollective;
    e.collective = "MPI_Barrier";
    e.t_start = r == 1 ? 0.005 : 0.0;
    e.t_end = e.t_start;
    trace.ranks[r].push_back(e);
  }
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  auto result = cmtbone::trace::replay(trace, cfg);
  for (double f : result.rank_finish) {
    EXPECT_NEAR(f, result.makespan, 1e-12);
  }
  EXPECT_GT(result.makespan, 0.005);
  EXPECT_GT(result.total_blocked, 0.009);  // two ranks idled ~5 ms each
}

TEST(Replay, SlowerNodesStretchComputeOnly) {
  // compute_scale > 1 models slower nodes; comm cost stays fixed.
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0.001, 0.001, 1, 1, 8));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 1, 8));
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  cfg.compute_scale = 1.0;
  auto base = cmtbone::trace::replay(trace, cfg);
  cfg.compute_scale = 3.0;
  auto slow = cmtbone::trace::replay(trace, cfg);
  EXPECT_NEAR(slow.total_compute, 3.0 * base.total_compute, 1e-12);
  EXPECT_DOUBLE_EQ(slow.total_comm, base.total_comm);
  EXPECT_GT(slow.makespan, base.makespan);
}

TEST(Replay, CollectiveCostDependsOnType) {
  // An allreduce (2 log P sweeps) must cost more than a barrier (1 sweep,
  // no payload) on the same machine at the same scale.
  auto run_one = [](const char* name, long long bytes) {
    Trace trace;
    trace.ranks.resize(4);
    for (int r = 0; r < 4; ++r) {
      Event e;
      e.kind = EventKind::kCollective;
      e.collective = name;
      e.bytes = bytes;
      trace.ranks[r].push_back(e);
    }
    ReplayConfig cfg;
    cfg.machine = simple_machine(1e-5, 1e-6, 1e8);
    return cmtbone::trace::replay(trace, cfg).makespan;
  };
  double barrier = run_one("MPI_Barrier", 0);
  double bcast = run_one("MPI_Bcast", 1 << 16);
  double allreduce = run_one("MPI_Allreduce", 1 << 16);
  EXPECT_GT(bcast, barrier);
  EXPECT_GT(allreduce, bcast);
}

TEST(Replay, MakespanIsMaxOfRankFinishTimes) {
  Trace trace;
  trace.ranks.resize(3);
  trace.ranks[0].push_back(make_event(EventKind::kSend, 0.002, 0.002, 1, 1, 8));
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 1, 8));
  // Rank 2 does nothing.
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  auto result = cmtbone::trace::replay(trace, cfg);
  double max_finish = 0;
  for (double f : result.rank_finish) max_finish = std::max(max_finish, f);
  EXPECT_DOUBLE_EQ(result.makespan, max_finish);
  EXPECT_DOUBLE_EQ(result.rank_finish[2], 0.0);
}

// --- collective cost formulas, pinned ------------------------------------------

TEST(Replay, CollectiveCostFormulasArePinned) {
  using cmtbone::trace::collective_cost;
  LogGPParams m = simple_machine(1e-5, 1e-6, 1e8);
  const int p = 8;
  const int stages = 3;  // ceil(log2 8)
  const long long bytes = 4000;
  const double msg = m.latency + 2.0 * m.overhead + bytes / m.bandwidth;

  // Allreduce and the allgathers: reduce sweep + broadcast sweep.
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Allreduce", bytes, p, m),
                   2.0 * stages * msg);
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Allgather", bytes, p, m),
                   2.0 * stages * msg);
  // Barrier: one payload-free sweep.
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Barrier", 0, p, m),
                   stages * (m.latency + 2.0 * m.overhead));
  // Alltoall: per-partner overheads serialize, wire time overlaps.
  EXPECT_DOUBLE_EQ(
      collective_cost("MPI_Alltoallv", bytes, p, m),
      2.0 * (p - 1) * m.overhead + m.latency + bytes / m.bandwidth);
  // Scan: a linear chain crosses P-1 hops — not P (the off-by-one this
  // formula once had would have charged a phantom hop at every scale).
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Scan", bytes, p, m),
                   (p - 1) * msg);
  // Tree collectives and anything unrecognized: one binomial sweep.
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Bcast", bytes, p, m), stages * msg);
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Frobnicate", bytes, p, m),
                   stages * msg);
  // Degenerate communicator: nothing to exchange.
  EXPECT_DOUBLE_EQ(collective_cost("MPI_Allreduce", bytes, 1, m), 0.0);
}

TEST(Replay, EmptyTraceReplaysToAllZeroResult) {
  Trace trace;
  trace.ranks.resize(3);
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  auto result = cmtbone::trace::replay(trace, cfg);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
  EXPECT_EQ(result.messages, 0u);
  EXPECT_EQ(result.bytes, 0);
  ASSERT_EQ(result.rank_finish.size(), 3u);
  for (double f : result.rank_finish) EXPECT_DOUBLE_EQ(f, 0.0);
}

// --- causal-inconsistency detection --------------------------------------------

TEST(Replay, RankFinishingBeforeCollectiveThrows) {
  // Rank 0 reaches a barrier rank 1 never joins: deadlock on a real fabric.
  Trace trace;
  trace.ranks.resize(2);
  Event e;
  e.kind = EventKind::kCollective;
  e.collective = "MPI_Barrier";
  trace.ranks[0].push_back(e);
  trace.ranks[1].push_back(make_event(EventKind::kSend, 0, 0, 0, 1, 8));
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  EXPECT_THROW(cmtbone::trace::replay(trace, cfg), std::runtime_error);
}

TEST(Replay, MismatchedCollectiveNamesThrow) {
  Trace trace;
  trace.ranks.resize(2);
  Event a, b;
  a.kind = b.kind = EventKind::kCollective;
  a.collective = "MPI_Barrier";
  b.collective = "MPI_Allreduce";
  trace.ranks[0].push_back(a);
  trace.ranks[1].push_back(b);
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  EXPECT_THROW(cmtbone::trace::replay(trace, cfg), std::runtime_error);
}

TEST(Replay, UnmatchedReceiveThrows) {
  Trace trace;
  trace.ranks.resize(2);
  trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 9, 8));
  ReplayConfig cfg;
  cfg.machine = simple_machine(1e-6, 1e-7, 1e9);
  EXPECT_THROW(cmtbone::trace::replay(trace, cfg), std::runtime_error);
}

TEST(Replay, FasterNetworkNeverSlowsTheRun) {
  // Ping-pong chain: makespan must be monotone in fabric quality.
  Trace trace;
  trace.ranks.resize(2);
  for (int i = 0; i < 10; ++i) {
    trace.ranks[0].push_back(make_event(EventKind::kSend, 0, 0, 1, 1, 4096));
    trace.ranks[0].push_back(make_event(EventKind::kRecv, 0, 0, 1, 2, 4096));
    trace.ranks[1].push_back(make_event(EventKind::kRecv, 0, 0, 0, 1, 4096));
    trace.ranks[1].push_back(make_event(EventKind::kSend, 0, 0, 0, 2, 4096));
  }
  ReplayConfig slow, fast;
  slow.machine = cmtbone::netmodel::ethernet_10g();
  fast.machine = cmtbone::netmodel::notional_exascale();
  double t_slow = cmtbone::trace::replay(trace, slow).makespan;
  double t_fast = cmtbone::trace::replay(trace, fast).makespan;
  EXPECT_LT(t_fast, t_slow);
}

// --- recording from live runs ---------------------------------------------------

TEST(Recording, CapturesP2PAndCollectives) {
  Recorder recorder(2);
  cmtbone::comm::RunOptions opts;
  opts.tracer = &recorder;
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      double x = 1.5;
      world.send(std::span<const double>(&x, 1), 1, 4);
    } else {
      double x = 0;
      world.recv(std::span<double>(&x, 1), 0, 4);
    }
    double v = 1.0;
    world.allreduce(std::span<double>(&v, 1), cmtbone::comm::ReduceOp::kSum);
  }, opts);

  Trace trace = recorder.take();
  ASSERT_EQ(trace.nranks(), 2);
  // Rank 0: one send + one collective; rank 1: one recv + one collective.
  bool send_seen = false, recv_seen = false;
  int collectives = 0;
  for (int r = 0; r < 2; ++r) {
    for (const Event& e : trace.ranks[r]) {
      if (e.kind == EventKind::kSend) {
        send_seen = true;
        EXPECT_EQ(e.peer, 1);
        EXPECT_EQ(e.bytes, 8);
        EXPECT_EQ(e.tag, 4);
      }
      if (e.kind == EventKind::kRecv) {
        recv_seen = true;
        EXPECT_EQ(e.peer, 0);
        EXPECT_EQ(e.bytes, 8);
      }
      if (e.kind == EventKind::kCollective) {
        ++collectives;
        EXPECT_EQ(e.collective, "MPI_Allreduce");
      }
    }
  }
  EXPECT_TRUE(send_seen);
  EXPECT_TRUE(recv_seen);
  EXPECT_EQ(collectives, 2);
  EXPECT_GT(trace.recorded_makespan(), 0.0);
}

TEST(Recording, UndersizedRecorderIsRejected) {
  // Each rank writes its own slot of the recorder; a recorder with fewer
  // slots than the job has ranks is refused before any rank starts.
  Recorder recorder(2);
  cmtbone::comm::RunOptions opts;
  opts.tracer = &recorder;
  bool ran = false;
  EXPECT_THROW(cmtbone::comm::run(
                   4, [&](Comm&) { ran = true; }, opts),
               std::invalid_argument);
  EXPECT_FALSE(ran);
}

TEST(Recording, LiveCmtBoneTraceReplays) {
  // Record a real (small) mini-app run and replay it on two machines: the
  // trace must be causally consistent and respond to fabric quality.
  const int ranks = 4;
  Recorder recorder(ranks);
  cmtbone::comm::RunOptions opts;
  opts.tracer = &recorder;
  cmtbone::comm::run(ranks, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(2);
  }, opts);

  Trace trace = recorder.take();
  EXPECT_GT(trace.total_events(), 0u);

  ReplayConfig eth, exa;
  eth.machine = cmtbone::netmodel::ethernet_10g();
  exa.machine = cmtbone::netmodel::notional_exascale();
  auto slow = cmtbone::trace::replay(trace, eth);
  auto fast = cmtbone::trace::replay(trace, exa);
  EXPECT_GT(slow.makespan, 0.0);
  EXPECT_LT(fast.makespan, slow.makespan);
  EXPECT_GT(slow.messages, 0u);
  EXPECT_EQ(slow.messages, fast.messages);  // same behavior, new timing
  EXPECT_EQ(slow.bytes, fast.bytes);
}

TEST(Recording, ReplayOfALiveTraceIsDeterministic) {
  // Two replays of one recorded trace must agree bit-for-bit: replay is a
  // pure function of (trace, config), with no hidden scheduler state.
  const int ranks = 2;
  Recorder recorder(ranks);
  cmtbone::comm::RunOptions opts;
  opts.tracer = &recorder;
  cmtbone::comm::run(ranks, [](Comm& world) {
    cmtbone::core::Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    cfg.fixed_dt = 1e-3;
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(2);
  }, opts);
  Trace trace = recorder.take();

  ReplayConfig cfg;
  cfg.machine = cmtbone::netmodel::qdr_infiniband();
  auto first = cmtbone::trace::replay(trace, cfg);
  auto second = cmtbone::trace::replay(trace, cfg);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.total_compute, second.total_compute);
  EXPECT_EQ(first.total_comm, second.total_comm);
  EXPECT_EQ(first.total_blocked, second.total_blocked);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.bytes, second.bytes);
  ASSERT_EQ(first.rank_finish.size(), second.rank_finish.size());
  for (std::size_t r = 0; r < first.rank_finish.size(); ++r) {
    EXPECT_EQ(first.rank_finish[r], second.rank_finish[r]);
  }
}

TEST(Recording, TakeResetsTheRecorder) {
  Recorder recorder(1);
  recorder.on_send(0, 0, 1, 8, 0.0, 0.1);
  Trace first = recorder.take();
  EXPECT_EQ(first.total_events(), 1u);
  Trace second = recorder.take();
  EXPECT_EQ(second.total_events(), 0u);
  EXPECT_EQ(second.nranks(), 1);
}

}  // namespace

// Tests for the chaos module: seeded schedule perturbation, reproducibility,
// FIFO preservation under message holds, forced-abort unwinding, and the
// replay-a-failing-seed harness shared with chaos_stress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos_workloads.hpp"
#include "comm/runtime.hpp"

namespace {

using cmtbone::chaos::ChaosAbortInjected;
using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::comm::DeadlockDetected;
using cmtbone::comm::JobAborted;
using cmtbone::comm::ReduceOp;

std::uint64_t run_with_policy(const ChaosPolicy& policy, int nranks,
                              const std::function<void(Comm&)>& body) {
  ChaosEngine engine(policy, nranks);
  cmtbone::comm::RunOptions options;
  options.chaos = &engine;
  cmtbone::comm::run(nranks, body, options);
  return engine.digest();
}

// ---- reproducibility --------------------------------------------------------

TEST(Chaos, SameSeedSameDigest) {
  // The digest summarizes every injection decision; identical digests on
  // repeated runs mean the same seed reproduces the same schedule even
  // though the OS interleaves the rank threads differently each time.
  for (const char* name : {"p2p", "gs_crystal"}) {
    std::uint64_t d1 = chaosws::run_workload(name, 11);
    std::uint64_t d2 = chaosws::run_workload(name, 11);
    EXPECT_EQ(d1, d2) << "workload " << name;
  }
}

TEST(Chaos, DifferentSeedsGiveDifferentSchedules) {
  EXPECT_NE(chaosws::run_workload("p2p", 1), chaosws::run_workload("p2p", 2));
}

TEST(Chaos, ForSeedZeroIsQuiescent) {
  ChaosPolicy off = ChaosPolicy::for_seed(0, 4);
  EXPECT_EQ(off.delay_probability, 0.0);
  EXPECT_EQ(off.hold_probability, 0.0);
  EXPECT_EQ(off.abort_rank, -1);
}

// ---- FIFO preservation under aggressive reordering --------------------------

TEST(Chaos, HeavyHoldsPreservePerSourceTagOrder) {
  // Hold 90% of messages for multiple ticks: deliveries are massively
  // reordered across streams, but within one (source, tag) stream order
  // must survive, and every message must eventually arrive. Holds of up to
  // 12 ticks expire while the receiver works; holds longer than the whole
  // run are still in place when the senders exit, so a blocked recv (wait)
  // and a blocked recv_vector (probe) must both flush the held queue
  // before any deadlock verdict.
  ChaosPolicy policy;
  policy.seed = 42;
  policy.hold_probability = 0.9;
  policy.delay_probability = 0.2;
  policy.max_delay_us = 30;

  constexpr int kMsgs = 20;
  constexpr int kTag = 7;
  bool dynamic = false;
  auto body = [&](Comm& world) {
    if (world.rank() < 2) {
      for (int i = 0; i < kMsgs; ++i) {
        long long v = world.rank() * 1000 + i;
        world.send(std::span<const long long>(&v, 1), 2, kTag);
      }
      return;
    }
    // Alternate between the two sources' streams.
    for (int n = 0; n < 2 * kMsgs; ++n) {
      const int src = n % 2;
      long long v = -1;
      if (dynamic) {
        const std::vector<long long> got =
            world.recv_vector<long long>(src, kTag);
        ASSERT_EQ(got.size(), 1u);
        v = got[0];
      } else {
        world.recv(std::span<long long>(&v, 1), src, kTag);
      }
      EXPECT_EQ(v, src * 1000 + n / 2)
          << "stream (" << src << ", tag " << kTag << ") reordered";
    }
  };
  for (int max_hold_ticks : {12, 1 << 30}) {
    for (bool use_recv_vector : {false, true}) {
      SCOPED_TRACE(std::string(use_recv_vector ? "recv_vector" : "recv") +
                   ", max_hold_ticks " + std::to_string(max_hold_ticks));
      policy.max_hold_ticks = max_hold_ticks;
      dynamic = use_recv_vector;
      EXPECT_NO_THROW(run_with_policy(policy, 3, body));
    }
  }
}

// ---- forced abort -----------------------------------------------------------

TEST(Chaos, ForcedAbortUnwindsAllRanksWithoutHang) {
  ChaosPolicy policy;
  policy.seed = 9;
  policy.abort_rank = 2;
  policy.abort_at_op = 7;

  constexpr int kRanks = 4;
  std::atomic<int> job_aborted_unwinds{0};
  auto body = [&](Comm& world) {
    try {
      // Never returns on its own: only the injected abort ends the job.
      for (;;) {
        (void)world.allreduce_one<long long>(world.rank(), ReduceOp::kSum);
      }
    } catch (const JobAborted&) {
      job_aborted_unwinds.fetch_add(1);
      throw;
    }
  };
  EXPECT_THROW(run_with_policy(policy, kRanks, body), ChaosAbortInjected);
  // The injected abort is rank 2's own exception; every other rank must
  // have unwound via JobAborted rather than hanging in a collective.
  EXPECT_EQ(job_aborted_unwinds.load(), kRanks - 1);
}

// ---- replay harness ---------------------------------------------------------

TEST(Chaos, ReplayByNameMatchesDirectRun) {
  EXPECT_EQ(chaosws::replay("crystal/5"), chaosws::run_workload("crystal", 5));
}

TEST(Chaos, ReplayRejectsMalformedSpecs) {
  EXPECT_THROW(chaosws::replay("no-slash"), std::runtime_error);
  EXPECT_THROW(chaosws::replay("p2p/"), std::runtime_error);
  EXPECT_THROW(chaosws::replay("p2p/12x"), std::runtime_error);
  EXPECT_THROW(chaosws::run_workload("bogus", 1), std::runtime_error);
}

TEST(Chaos, AllWorkloadsPassAFewSeeds) {
  for (const std::string& name : chaosws::workload_names()) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      EXPECT_NO_THROW(chaosws::run_workload(name, seed))
          << name << "/" << seed;
    }
  }
}

// ---- diagnosable failure text ----------------------------------------------

TEST(Chaos, DeadlockMessageNamesRankSourceAndTag) {
  // Both blocking calls: recv (wait) and recv_vector (probe).
  for (bool dynamic : {false, true}) {
    SCOPED_TRACE(dynamic ? "recv_vector" : "recv");
    try {
      cmtbone::comm::run(2, [&](Comm& world) {
        if (world.rank() != 0) return;
        if (dynamic) {
          (void)world.recv_vector<long long>(1, 5);  // never sent
        } else {
          long long v = 0;
          world.recv(std::span<long long>(&v, 1), 1, 5);  // never sent
        }
      });
      ADD_FAILURE() << "expected DeadlockDetected";
    } catch (const DeadlockDetected& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("src=1"), std::string::npos) << what;
      EXPECT_NE(what.find("tag=5"), std::string::npos) << what;
    }
  }
}

TEST(Chaos, JobAbortedMessageNamesBlockedReceive) {
  std::string captured;
  try {
    cmtbone::comm::run(2, [&](Comm& world) {
      if (world.rank() == 0) {
        // Let rank 1 actually block in its receive before aborting, so the
        // JobAborted it sees carries the blocked-receive detail (an abort
        // caught before the wait uses the generic message).
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        throw std::runtime_error("boom");
      }
      try {
        long long v = 0;
        world.recv(std::span<long long>(&v, 1), 0, 7);
      } catch (const JobAborted& e) {
        captured = e.what();
        throw;
      }
    });
    FAIL() << "expected the user exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_NE(captured.find("rank 1"), std::string::npos) << captured;
  EXPECT_NE(captured.find("src=0"), std::string::npos) << captured;
  EXPECT_NE(captured.find("tag=7"), std::string::npos) << captured;
}

// ---- step-boundary kill semantics ------------------------------------------

TEST(ChaosKillStep, OneShotByDefault) {
  ChaosPolicy policy;
  policy.kill_rank = 0;
  policy.kill_step = 5;
  ChaosEngine engine(policy, 2);
  engine.on_step(0, 4);  // before the kill point: quiet
  EXPECT_THROW(engine.on_step(0, 5), ChaosAbortInjected);
  // The historical contract: one fire ever, so a recovery re-run under the
  // same engine rides past the kill point.
  engine.on_step(0, 5);
  engine.on_step(0, 6);
  engine.on_step(0, 100);
  EXPECT_EQ(engine.kill_fires(), 1);
}

TEST(ChaosKillStep, OtherRankNeverFires) {
  ChaosPolicy policy;
  policy.kill_rank = 1;
  policy.kill_step = 3;
  ChaosEngine engine(policy, 2);
  engine.on_step(0, 3);
  engine.on_step(0, 4);
  EXPECT_EQ(engine.kill_fires(), 0);
  EXPECT_THROW(engine.on_step(1, 3), ChaosAbortInjected);
}

TEST(ChaosKillStep, PeriodicRearmNeverRefiresOnReplayedSteps) {
  ChaosPolicy policy;
  policy.kill_rank = 0;
  policy.kill_step = 5;
  policy.kill_period = 3;
  policy.kill_max_count = 100;
  ChaosEngine engine(policy, 1);
  EXPECT_THROW(engine.on_step(0, 5), ChaosAbortInjected);
  // A recovery attempt replays the rolled-back steps; the re-armed target
  // is fired_step + period, strictly past the last fire, so the replay is
  // never killed at the same point and the job always makes progress.
  engine.on_step(0, 3);
  engine.on_step(0, 4);
  engine.on_step(0, 5);
  engine.on_step(0, 6);
  engine.on_step(0, 7);
  EXPECT_EQ(engine.kill_fires(), 1);
  EXPECT_THROW(engine.on_step(0, 8), ChaosAbortInjected);
  EXPECT_EQ(engine.kill_fires(), 2);
}

TEST(ChaosKillStep, OvershootingTheTargetStillFires) {
  // A replay that checkpoints past the armed step (e.g. restore lands at a
  // later epoch) must still hit the fault at the next boundary reached.
  ChaosPolicy policy;
  policy.kill_rank = 0;
  policy.kill_step = 5;
  policy.kill_period = 2;
  policy.kill_max_count = 100;
  ChaosEngine engine(policy, 1);
  EXPECT_THROW(engine.on_step(0, 9), ChaosAbortInjected);  // first reach >= 5
  // Re-armed at 9 + 2 = 11, not at the stale 7.
  engine.on_step(0, 10);
  EXPECT_THROW(engine.on_step(0, 11), ChaosAbortInjected);
  EXPECT_EQ(engine.kill_fires(), 2);
}

TEST(ChaosKillStep, MaxCountBoundsTheFires) {
  ChaosPolicy policy;
  policy.kill_rank = 0;
  policy.kill_step = 2;
  policy.kill_period = 1;
  policy.kill_max_count = 2;
  ChaosEngine engine(policy, 1);
  EXPECT_THROW(engine.on_step(0, 2), ChaosAbortInjected);
  EXPECT_THROW(engine.on_step(0, 3), ChaosAbortInjected);
  for (long long s = 2; s < 50; ++s) engine.on_step(0, s);
  EXPECT_EQ(engine.kill_fires(), 2);
}

}  // namespace

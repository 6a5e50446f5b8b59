// Profiling substrate: call trees, the comm tables over them, timers.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "gs/gather_scatter.hpp"
#include "prof/callprof.hpp"
#include "prof/perf_counters.hpp"
#include "prof/timer.hpp"

namespace {

using cmtbone::prof::CallProfile;
using cmtbone::prof::CommOp;
using cmtbone::prof::ScopedRegion;

// Keep a computation observable without volatile arithmetic.
void benchmark_guard(double& v) {
  asm volatile("" : "+m"(v) : : "memory");
}

TEST(Timer, WallTimerAdvances) {
  cmtbone::prof::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(t.seconds(), 0.004);
}

TEST(Timer, CyclesMonotone) {
  auto a = cmtbone::prof::read_cycles();
  auto b = cmtbone::prof::read_cycles();
  EXPECT_GE(b, a);
}

TEST(Timer, CycleUnitMatchesPlatform) {
  // read_cycles() counts TSC ticks on x86 and steady-clock nanoseconds
  // elsewhere; the advertised unit must match the compiled-in reader so no
  // consumer ever mixes the two as one unit.
  using cmtbone::prof::CycleUnit;
  constexpr CycleUnit unit = cmtbone::prof::cycle_unit();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_EQ(unit, CycleUnit::kTscCycles);
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(), "tsc-cycles");
#else
  EXPECT_EQ(unit, CycleUnit::kNanoseconds);
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(), "nanoseconds");
#endif
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(CycleUnit::kTscCycles),
               "tsc-cycles");
  EXPECT_STREQ(cmtbone::prof::cycle_unit_name(CycleUnit::kNanoseconds),
               "nanoseconds");
}

TEST(CallProf, BuildsNestedTree) {
  cmtbone::prof::reset_thread_profile();
  {
    ScopedRegion outer("step");
    {
      ScopedRegion inner("rhs");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    { ScopedRegion inner("rhs"); }
    { ScopedRegion other("gs"); }
  }
  const auto& prof = cmtbone::prof::thread_profile();
  auto flat = prof.flat();
  ASSERT_GE(flat.size(), 3u);
  long rhs_calls = 0;
  for (const auto& e : flat) {
    if (e.name == "rhs") rhs_calls = e.calls;
  }
  EXPECT_EQ(rhs_calls, 2);
  EXPECT_GT(prof.total_seconds(), 0.0);
  std::string report = prof.tree_report();
  EXPECT_NE(report.find("step"), std::string::npos);
  EXPECT_NE(report.find("rhs"), std::string::npos);
}

TEST(CallProf, ExclusiveTimeSubtractsChildren) {
  cmtbone::prof::reset_thread_profile();
  {
    ScopedRegion outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    {
      ScopedRegion inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  auto flat = cmtbone::prof::thread_profile().flat();
  double outer_excl = 0, outer_incl = 0, inner_incl = 0;
  for (const auto& e : flat) {
    if (e.name == "outer") {
      outer_excl = e.exclusive;
      outer_incl = e.inclusive;
    }
    if (e.name == "inner") inner_incl = e.inclusive;
  }
  EXPECT_GT(inner_incl, 0.003);
  EXPECT_NEAR(outer_excl, outer_incl - inner_incl, 1e-9);
}

TEST(CallProf, MergeAccumulatesAcrossProfiles) {
  CallProfile a, b;
  a.enter("x");
  a.leave(1.0);
  b.enter("x");
  b.leave(2.0);
  b.enter("y");
  b.leave(0.5);
  a.merge(b);
  auto flat = a.flat();
  double x_time = 0, y_time = 0;
  long x_calls = 0;
  for (const auto& e : flat) {
    if (e.name == "x") {
      x_time = e.inclusive;
      x_calls = e.calls;
    }
    if (e.name == "y") y_time = e.inclusive;
  }
  EXPECT_DOUBLE_EQ(x_time, 3.0);
  EXPECT_EQ(x_calls, 2);
  EXPECT_DOUBLE_EQ(y_time, 0.5);
}

TEST(CommProf, RecordsAndAggregates) {
  // Comm operations count on the innermost open region; a site is
  // "<region>/<op>", summed over ranks and over the region's tree positions.
  std::vector<CallProfile> ranks(2);
  ranks[0].enter("gs");
  ranks[0].count(CommOp::kIsend, 0.5, 100);
  ranks[0].leave(1.0);
  ranks[0].enter("step");
  ranks[0].enter("gs");
  ranks[0].count(CommOp::kIsend, 0.25, 50);
  ranks[0].leave(0.5);
  ranks[0].leave(0.5);
  ranks[1].enter("gs");
  ranks[1].count(CommOp::kWait, 1.0, 0);
  ranks[1].leave(1.5);
  ranks[0].set_wall_seconds(1.5);
  ranks[1].set_wall_seconds(2.0);

  EXPECT_DOUBLE_EQ(ranks[0].comm_seconds(), 0.75);
  auto frac = cmtbone::prof::comm_fraction_per_rank(ranks);
  EXPECT_DOUBLE_EQ(frac[0], 0.5);
  EXPECT_DOUBLE_EQ(frac[1], 0.5);

  auto sites = cmtbone::prof::site_totals(ranks);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, "gs/MPI_Wait");  // sorted by time
  EXPECT_EQ(sites[1].site, "gs/MPI_Isend");
  EXPECT_EQ(sites[1].calls, 2);
  EXPECT_EQ(sites[1].total_bytes, 150);
  EXPECT_DOUBLE_EQ(sites[1].avg_bytes, 75.0);

  const std::string top1 = cmtbone::prof::top_sites_table(ranks, 1).str();
  EXPECT_NE(top1.find("gs/MPI_Wait"), std::string::npos);
  EXPECT_EQ(top1.find("gs/MPI_Isend"), std::string::npos);

  // Outside every region the site is the bare operation.
  CallProfile bare;
  bare.count(CommOp::kAllreduce, 0.1, 8);
  auto bare_sites = cmtbone::prof::site_totals({&bare, 1});
  ASSERT_EQ(bare_sites.size(), 1u);
  EXPECT_EQ(bare_sites[0].site, "MPI_Allreduce");

  // Merging keeps the counters on their nodes.
  CallProfile merged;
  for (const CallProfile& p : ranks) merged.merge(p);
  EXPECT_DOUBLE_EQ(merged.comm_seconds(), 1.75);
  EXPECT_DOUBLE_EQ(merged.wall_seconds(), 3.5);
  EXPECT_EQ(cmtbone::prof::site_totals({&merged, 1}).size(), 2u);
}

TEST(CommProf, ReportsRenderWithoutCrashing) {
  std::vector<CallProfile> ranks(2);
  ranks[0].enter("a");
  ranks[0].count(CommOp::kSend, 0.1, 64);
  ranks[0].leave(0.1);
  ranks[0].set_wall_seconds(0.2);
  ranks[1].set_wall_seconds(0.2);
  EXPECT_NE(cmtbone::prof::comm_fraction_table(ranks).str().find("rank"),
            std::string::npos);
  EXPECT_NE(cmtbone::prof::top_sites_table(ranks, 5).str().find("a/MPI_Send"),
            std::string::npos);
  EXPECT_NE(cmtbone::prof::message_sizes_table(ranks, 5).str().find("64"),
            std::string::npos);
  ranks = std::vector<CallProfile>(2);
  EXPECT_TRUE(cmtbone::prof::site_totals(ranks).empty());
}

TEST(CommProf, RuntimeIntegrationAttributesSites) {
  std::vector<CallProfile> profiles;
  cmtbone::comm::RunOptions opts;
  opts.call_profiles = &profiles;
  cmtbone::comm::run(2, [](cmtbone::comm::Comm& world) {
    ScopedRegion region("unit_test_phase");
    double x = world.rank();
    world.allreduce(std::span<double>(&x, 1), cmtbone::comm::ReduceOp::kSum);
  }, opts);
  bool found = false;
  for (const auto& s : cmtbone::prof::site_totals(profiles)) {
    if (s.site == "unit_test_phase/MPI_Allreduce") {
      found = true;
      EXPECT_EQ(s.calls, 2);  // one per rank
      EXPECT_EQ(s.total_bytes, 2 * 8);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GT(profiles.at(0).wall_seconds(), 0.0);
}

TEST(CommProf, TablesMatchTheExchangePlans) {
  // Summed over ranks, each RHS evaluation's face exchange sends the plan's
  // send_bytes_per_exchange(). Each pairwise dssum gs_op sends
  // pairwise_send_values() doubles: one multiplicity gs_op at set-up plus
  // one per field per step.
  constexpr int kRanks = 2;
  constexpr int kSteps = 3;
  cmtbone::core::Config cfg;
  cfg.n = 4;
  cfg.ex = cfg.ey = cfg.ez = 2;
  cfg.fixed_dt = 1e-3;
  cfg.gs_method = cmtbone::gs::Method::kPairwise;
  cfg.use_dssum = true;
  const int stages = cmtbone::core::integrator_stages(cfg.integrator);
  long long face_bytes = 0, gs_values = 0;
  int nfields = 0;
  std::vector<CallProfile> profiles;
  cmtbone::comm::RunOptions opts;
  opts.call_profiles = &profiles;
  std::mutex mu;
  cmtbone::comm::run(kRanks, [&](cmtbone::comm::Comm& world) {
    cmtbone::core::Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(kSteps);
    std::lock_guard<std::mutex> lock(mu);
    face_bytes +=
        driver.face_exchange().send_bytes_per_exchange(driver.nfields());
    gs_values += (long long)driver.gather_scatter().pairwise_send_values();
    nfields = driver.nfields();
  }, opts);

  long long face_sent = 0, dssum_sent = 0, setup_sent = 0;
  for (const auto& s : cmtbone::prof::site_totals(profiles)) {
    if (s.site == "exchange_begin/MPI_Isend") face_sent = s.total_bytes;
    if (s.site == "gs_op_ (dssum)/MPI_Isend") dssum_sent = s.total_bytes;
    if (s.site == "MPI_Isend") setup_sent = s.total_bytes;
  }
  EXPECT_GT(face_bytes, 0);
  EXPECT_EQ(face_sent, face_bytes * kSteps * stages);
  EXPECT_GT(gs_values, 0);
  EXPECT_EQ(dssum_sent, gs_values * 8 * kSteps * nfields);
  EXPECT_EQ(setup_sent, gs_values * 8);
}

TEST(PerfCounters, GracefulWhetherAvailableOrNot) {
  cmtbone::prof::HwCounters hw;
  hw.start();
  double sum = 0;
  for (int i = 0; i < 100000; ++i) sum += i;
  benchmark_guard(sum);
  hw.stop();
  if (hw.available()) {
    EXPECT_GT(hw.instructions(), 0u);
    EXPECT_GT(hw.cycles(), 0u);
  } else {
    EXPECT_EQ(hw.instructions(), 0u);
    EXPECT_EQ(hw.cycles(), 0u);
  }
}

}  // namespace

// Resilience: checkpoint format hardening (CRC32, torn-write safety,
// truncation and corruption rejection), the coordinated checkpoint/restore
// protocol (buddy replication, newest-globally-complete selection), failure
// detection (survivors observe RankFailed, not DeadlockDetected), and the
// recovery supervisor's bit-identical chaos-kill recovery matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "io/checkpoint.hpp"
#include "mesh/face_exchange.hpp"
#include "mesh/faces.hpp"
#include "mesh/layout.hpp"
#include "resilience/checkpoint_coordinator.hpp"
#include "resilience/recovery.hpp"

namespace {

namespace fs = std::filesystem;

using cmtbone::chaos::ChaosAbortInjected;
using cmtbone::chaos::ChaosEngine;
using cmtbone::chaos::ChaosPolicy;
using cmtbone::comm::Comm;
using cmtbone::comm::DeadlockDetected;
using cmtbone::comm::JobAborted;
using cmtbone::comm::RankFailed;
using cmtbone::core::Config;
using cmtbone::core::Driver;
using cmtbone::resilience::CheckpointCoordinator;
using cmtbone::resilience::CheckpointOptions;
using cmtbone::resilience::RecoveryOptions;
using cmtbone::resilience::RecoveryPolicy;
using cmtbone::resilience::RecoveryReport;
using cmtbone::resilience::run_with_recovery;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cmtbone_res_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// Small, fast geometry used by every coordinator/recovery test.
Config tiny_config() {
  Config cfg;
  cfg.n = 3;
  cfg.ex = cfg.ey = cfg.ez = 2;
  cfg.fixed_dt = 1e-3;
  return cfg;
}

// Write a checkpoint for a toy field and return its path and payload.
struct ToyCheckpoint {
  std::string path;
  std::vector<double> field;
  std::size_t points = 0;
};

ToyCheckpoint write_toy(const fs::path& dir, int rank = 3,
                        long long epoch = 12) {
  ToyCheckpoint toy;
  toy.points = std::size_t(3) * 3 * 3 * 2;
  toy.field.resize(toy.points);
  for (std::size_t i = 0; i < toy.points; ++i) toy.field[i] = 0.25 * double(i);
  cmtbone::io::CheckpointHeader header;
  header.n = 3;
  header.nel = 2;
  header.nfields = 1;
  header.steps = 7;
  header.time = 0.5;
  header.rank = rank;
  header.epoch = epoch;
  const double* fields[] = {toy.field.data()};
  const std::int32_t owner[] = {3, 3};
  toy.path = (dir / "toy.chk").string();
  cmtbone::io::write_file_atomic(
      toy.path, cmtbone::io::serialize_checkpoint(
                    header, std::span<const double* const>(fields, 1),
                    toy.points, std::span<const std::int32_t>(owner, 2)));
  return toy;
}

// ---- checkpoint format: CRC32, atomic writes, truncation -------------------

// Reference CRC32 (IEEE, reflected), one bit at a time, with the same
// seed-chaining convention as io::crc32.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t bytes,
                            std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesKnownVectors) {
  // The canonical IEEE CRC32 check value.
  EXPECT_EQ(cmtbone::io::crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(cmtbone::io::crc32("", 0), 0u);
  // Chunked == one-shot via the seed-chaining form.
  const std::uint32_t first = cmtbone::io::crc32("12345", 5);
  EXPECT_EQ(cmtbone::io::crc32("6789", 4, first), 0xcbf43926u);

  // Against the reference at every length 0..64 from every start offset
  // 0..7 (so the 8-byte word loop sees every alignment and tail length),
  // one-shot and chained at every split point.
  std::vector<unsigned char> buf(64 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(mix64(i + 1) >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint32_t want = crc32_bitwise(p, len);
      ASSERT_EQ(cmtbone::io::crc32(p, len), want)
          << "offset " << offset << ", length " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        const std::uint32_t head = cmtbone::io::crc32(p, split);
        ASSERT_EQ(cmtbone::io::crc32(p + split, len - split, head), want)
            << "offset " << offset << ", length " << len << ", split "
            << split;
      }
    }
  }
}

TEST_F(ResilienceTest, V3RoundTripCarriesRankEpochAndLeavesNoTmp) {
  ToyCheckpoint toy = write_toy(dir_);
  std::vector<std::vector<double>> loaded;
  auto h = cmtbone::io::parse_checkpoint(cmtbone::io::read_file(toy.path),
                                         toy.path, &loaded);
  EXPECT_EQ(h.version, 3u);
  EXPECT_EQ(h.rank, 3);
  EXPECT_EQ(h.epoch, 12);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], toy.field);
  // The atomic-write staging file must not survive a successful write.
  EXPECT_FALSE(fs::exists(toy.path + ".tmp"));
}

TEST_F(ResilienceTest, PayloadBitFlipThrowsChecksumMismatchWithContext) {
  ToyCheckpoint toy = write_toy(dir_, /*rank=*/5, /*epoch=*/42);
  {
    std::FILE* f = std::fopen(toy.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, long(cmtbone::io::kHeaderBytes) + 16, SEEK_SET),
              0);
    unsigned char b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0x01;  // single bit flip
    ASSERT_EQ(std::fseek(f, long(cmtbone::io::kHeaderBytes) + 16, SEEK_SET),
              0);
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);
  }
  std::vector<std::vector<double>> fields;
  try {
    cmtbone::io::parse_checkpoint(cmtbone::io::read_file(toy.path), toy.path,
                                  &fields);
    FAIL() << "corrupt payload was accepted";
  } catch (const cmtbone::io::ChecksumMismatch& e) {
    EXPECT_EQ(e.path, toy.path);
    EXPECT_EQ(e.rank, 5);
    EXPECT_EQ(e.epoch, 42);
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST_F(ResilienceTest, TruncationMidHeaderAndMidPayloadAreRejected) {
  ToyCheckpoint toy = write_toy(dir_);
  const auto full = cmtbone::io::read_file(toy.path);
  // Early in the header, late in the header, mid-payload.
  for (std::size_t keep :
       {std::size_t(17), cmtbone::io::kHeaderBytes - 8, full.size() - 11}) {
    const std::string path = (dir_ / ("trunc" + std::to_string(keep))).string();
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(full.data()),
              std::streamsize(keep));
    out.close();
    std::vector<std::vector<double>> fields;
    EXPECT_THROW(cmtbone::io::parse_checkpoint(cmtbone::io::read_file(path),
                                               path, &fields),
                 std::runtime_error)
        << "accepted a file truncated to " << keep << " bytes";
  }
}

// ---- coordinator: commit, prune, globally-complete selection ----------------

TEST_F(ResilienceTest, CoordinatorWritesPrimariesBuddiesAndPrunesRing) {
  const std::string dir = dir_.string();
  cmtbone::comm::run(2, [&](Comm& world) {
    Driver driver(world, tiny_config());
    driver.initialize(driver.default_ic());
    CheckpointOptions opt;
    opt.directory = dir;
    opt.interval = 2;
    CheckpointCoordinator coord(world, opt);
    driver.run(6, [&](Driver& d) { coord.maybe_checkpoint(d); });
    EXPECT_EQ(coord.last_epoch(), 6);
  });
  // Ring keeps epochs 4 and 6 (epoch 2 pruned), each with a primary per
  // rank and a buddy replica per rank.
  for (long long e : {4ll, 6ll}) {
    for (int r = 0; r < 2; ++r) {
      EXPECT_TRUE(fs::exists(
          CheckpointCoordinator::primary_path(dir, "ckpt", e, r)))
          << "epoch " << e << " rank " << r;
      EXPECT_TRUE(
          fs::exists(CheckpointCoordinator::buddy_path(dir, "ckpt", e, r)))
          << "epoch " << e << " rank " << r;
    }
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(fs::exists(
        CheckpointCoordinator::primary_path(dir, "ckpt", 2, r)));
    EXPECT_FALSE(
        fs::exists(CheckpointCoordinator::buddy_path(dir, "ckpt", 2, r)));
  }
}

// Drive 6 steps with checkpoints at 2,4,6, damage files as `mutilate`
// dictates, then restore into fresh drivers and report the epoch.
long long restore_after(const std::string& dir,
                        const std::function<void()>& mutilate) {
  cmtbone::comm::run(2, [&](Comm& world) {
    Driver driver(world, tiny_config());
    driver.initialize(driver.default_ic());
    CheckpointOptions opt;
    opt.directory = dir;
    opt.interval = 2;
    CheckpointCoordinator coord(world, opt);
    driver.run(6, [&](Driver& d) { coord.maybe_checkpoint(d); });
  });
  mutilate();
  std::atomic<long long> restored{-2};
  cmtbone::comm::run(2, [&](Comm& world) {
    Driver driver(world, tiny_config());
    CheckpointOptions opt;
    opt.directory = dir;
    CheckpointCoordinator coord(world, opt);
    const long long epoch = coord.restore_latest(driver);
    if (epoch >= 0) {
      EXPECT_EQ(driver.steps_taken(), epoch);
    }
    if (world.rank() == 0) restored.store(epoch);
  });
  return restored.load();
}

TEST_F(ResilienceTest, RestorePicksNewestEpochWhenAllFilesIntact) {
  EXPECT_EQ(restore_after(dir_.string(), [] {}), 6);
}

TEST_F(ResilienceTest, RestoreFallsBackToBuddyWhenPrimaryCorrupt) {
  const std::string dir = dir_.string();
  EXPECT_EQ(restore_after(dir,
                          [&] {
                            // Corrupt rank 1's newest primary; its buddy
                            // replica still vouches for epoch 6.
                            const std::string p =
                                CheckpointCoordinator::primary_path(dir, "ckpt",
                                                                    6, 1);
                            std::FILE* f = std::fopen(p.c_str(), "r+b");
                            ASSERT_NE(f, nullptr);
                            std::fseek(f, 60, SEEK_SET);
                            unsigned char junk = 0xa5;
                            std::fwrite(&junk, 1, 1, f);
                            std::fclose(f);
                          }),
            6);
}

TEST_F(ResilienceTest, RestoreDropsToOlderEpochWhenPrimaryAndBuddyLost) {
  const std::string dir = dir_.string();
  EXPECT_EQ(restore_after(dir,
                          [&] {
                            // Epoch 6 is not globally complete anymore:
                            // rank 1 lost both of its copies.
                            fs::remove(CheckpointCoordinator::primary_path(
                                dir, "ckpt", 6, 1));
                            fs::remove(CheckpointCoordinator::buddy_path(
                                dir, "ckpt", 6, 1));
                          }),
            4);
}

TEST_F(ResilienceTest, RestoreHandlesMixedNewestEpochsAcrossRanks) {
  const std::string dir = dir_.string();
  // Rank 0 keeps epoch 6, rank 1's newest surviving epoch is 4 (both its
  // epoch-6 copies gone): the newest *globally complete* epoch is 4.
  EXPECT_EQ(restore_after(dir,
                          [&] {
                            fs::remove(CheckpointCoordinator::primary_path(
                                dir, "ckpt", 6, 1));
                            fs::remove(CheckpointCoordinator::buddy_path(
                                dir, "ckpt", 6, 1));
                            // Also corrupt rank 0's epoch-4 primary: rank 0
                            // must fall back to its buddy for the common
                            // epoch.
                            const std::string p =
                                CheckpointCoordinator::primary_path(dir, "ckpt",
                                                                    4, 0);
                            std::FILE* f = std::fopen(p.c_str(), "r+b");
                            ASSERT_NE(f, nullptr);
                            std::fseek(f, 70, SEEK_SET);
                            unsigned char junk = 0x5a;
                            std::fwrite(&junk, 1, 1, f);
                            std::fclose(f);
                          }),
            4);
}

TEST_F(ResilienceTest, RestoreReturnsMinusOneWithNoCheckpoints) {
  std::atomic<long long> restored{-2};
  const std::string dir = dir_.string();
  cmtbone::comm::run(2, [&](Comm& world) {
    Driver driver(world, tiny_config());
    CheckpointOptions opt;
    opt.directory = dir;
    CheckpointCoordinator coord(world, opt);
    if (world.rank() == 0) restored.store(coord.restore_latest(driver));
    else coord.restore_latest(driver);
  });
  EXPECT_EQ(restored.load(), -1);
}

// ---- failure detection: survivors see RankFailed, not DeadlockDetected -----

TEST(FailureDetection, SurvivorsObserveRankFailedWithEpochAcrossSeeds) {
  // Survivors block in either blocking call: recv (wait) or recv_vector
  // (probe).
  for (bool dynamic : {false, true}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      SCOPED_TRACE(dynamic ? "recv_vector" : "recv");
      ChaosEngine engine(ChaosPolicy::for_seed(seed, 3), 3);
      cmtbone::prof::RecoveryStats stats;
      cmtbone::comm::RunOptions options;
      options.chaos = &engine;
      options.recovery = &stats;
      options.epoch = 7;

      std::atomic<int> rank_failed_seen{0};
      std::atomic<int> wrong_exception{0};
      try {
        cmtbone::comm::run(
            3,
            [&](Comm& world) {
              if (world.rank() == 1) {
                throw std::runtime_error("injected user failure");
              }
              try {
                // Blocks forever: rank 1 never sends. Without failure
                // propagation this would trip the deadlock detector.
                if (dynamic) {
                  (void)world.recv_vector<long long>(1, 5);
                } else {
                  long long v = 0;
                  world.recv(std::span<long long>(&v, 1), 1, 5);
                }
              } catch (const RankFailed& e) {
                EXPECT_EQ(e.failed_rank, 1);
                EXPECT_EQ(e.epoch, 7);
                rank_failed_seen.fetch_add(1);
                throw;
              } catch (const DeadlockDetected&) {
                wrong_exception.fetch_add(1);
                throw;
              }
            },
            options);
        FAIL() << "the origin's exception must be rethrown";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("injected user failure"),
                  std::string::npos);
      }
      EXPECT_EQ(rank_failed_seen.load(), 2) << "seed " << seed;
      EXPECT_EQ(wrong_exception.load(), 0) << "seed " << seed;
      EXPECT_EQ(stats.detections, 2) << "seed " << seed;
      EXPECT_GE(stats.detection_seconds_max, 0.0);
      EXPECT_GE(stats.detection_seconds_sum, 0.0);
    }
  }
}

TEST(FailureDetection, CollectiveSurvivorsUnwindOnPeerFailure) {
  // Ranks blocked inside a collective tree (not a plain recv) must also
  // observe the failure and unwind; nobody may hang or misdiagnose
  // deadlock.
  std::atomic<int> unwound{0};
  try {
    cmtbone::comm::run(4, [&](Comm& world) {
      if (world.rank() == 2) throw std::runtime_error("die in collective");
      try {
        for (;;) {
          (void)world.allreduce_one<long long>(1, cmtbone::comm::ReduceOp::kSum);
        }
      } catch (const JobAborted&) {
        unwound.fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected the origin exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(unwound.load(), 3);
}

// ---- unwind safety of the split-phase paths under chaos aborts --------------

TEST(UnwindSafety, GsSplitPhaseAndOverlapSurviveAbortSweep) {
  // Kill rank 1 at a sweep of operation counts while the overlap path has
  // irecvs posted into face-exchange or dssum buffers. Every run must
  // either complete or unwind cleanly — no use-after-free (ASan job), no
  // hang, no spurious deadlock verdict. Exercises the FaceExchange
  // begin/finish and pairwise gs_op unwind paths, with unordered and
  // ordered (per-slot key) dssum handles.
  Config cfg = tiny_config();
  cfg.overlap = true;
  cfg.gs_method = cmtbone::gs::Method::kPairwise;
  for (bool ordered_gs : {false, true}) {
    cfg.ordered_gs = ordered_gs;
    for (long long abort_op : {2ll, 7ll, 19ll, 41ll, 71ll, 113ll}) {
      ChaosPolicy policy;
      policy.seed = 77;
      policy.abort_rank = 1;
      policy.abort_at_op = abort_op;
      ChaosEngine engine(policy, 2);
      cmtbone::comm::RunOptions options;
      options.chaos = &engine;
      bool threw = false;
      try {
        cmtbone::comm::run(
            2,
            [&](Comm& world) {
              Driver driver(world, cfg);
              driver.initialize(driver.default_ic());
              driver.run(3);
            },
            options);
      } catch (const ChaosAbortInjected&) {
        threw = true;
      }
      EXPECT_TRUE(threw) << "abort_at_op " << abort_op << ", ordered_gs "
                         << ordered_gs << " never fired; widen the sweep";
    }
  }
}

TEST(UnwindSafety, DestroyedFaceExchangeWithdrawsItsReceives) {
  // Rank 1 destroys a FaceExchange between begin() and finish() after a
  // local throw; only after that (the barrier) does rank 0 send its planes,
  // which match the destroyed exchange's receives by (source, tag). The
  // destructor must have withdrawn those receives, so rank 0's planes stay
  // queued until rank 1's next exchange receives them. Without the
  // withdrawal they land in the freed receive buffers (an ASan report) and
  // rank 1's next exchange ends in DeadlockDetected.
  //
  // Periodic 2x1x1 elements on 2 ranks: each rank's one element pairs with
  // the other rank's on both x faces, so two planes go each way.
  cmtbone::mesh::BoxSpec spec;
  spec.n = 3;
  spec.ex = 2;
  spec.ey = spec.ez = 1;
  spec.px = 2;
  spec.py = spec.pz = 1;
  cmtbone::comm::run(2, [&](Comm& world) {
    const auto layout =
        cmtbone::mesh::ElementLayout::block(spec, world.rank());
    const int n = spec.n;
    const std::size_t fpts = std::size_t(n) * n;
    const std::size_t fsz = cmtbone::mesh::face_array_size(n, layout.nel());
    // Point p of face f of global element g holds g*1000 + f*100 + p.
    auto marker = [](long long g, int f, std::size_t p) {
      return double(g * 1000 + f * 100) + double(p);
    };
    std::vector<double> myfaces(fsz), nbrfaces(fsz, -1.0);
    for (int e = 0; e < layout.nel(); ++e) {
      for (int f = 0; f < 6; ++f) {
        for (std::size_t p = 0; p < fpts; ++p) {
          myfaces[cmtbone::mesh::face_offset(f, e, n) + p] =
              marker(layout.gid_of(e), f, p);
        }
      }
    }
    if (world.rank() == 1) {
      try {
        cmtbone::mesh::FaceExchange abandoned(world, layout);
        abandoned.begin(myfaces.data(), nbrfaces.data(), 1);
        throw std::runtime_error("local failure between begin and finish");
      } catch (const std::runtime_error&) {
      }
      std::fill(nbrfaces.begin(), nbrfaces.end(), -1.0);
    }
    world.barrier();
    // Rank 0 receives the planes the abandoned exchange sent; rank 1
    // receives rank 0's.
    cmtbone::mesh::FaceExchange exchange(world, layout);
    exchange.exchange(myfaces.data(), nbrfaces.data(), 1);
    for (int e = 0; e < layout.nel(); ++e) {
      const long long g = layout.gid_of(e);
      for (int f = 0; f < 6; ++f) {
        const long long ng = layout.face_neighbor(g, f);
        for (std::size_t p = 0; p < fpts; ++p) {
          const double want =
              ng < 0 ? marker(g, f, p)
                     : marker(ng, cmtbone::mesh::opposite_face(f), p);
          ASSERT_EQ(nbrfaces[cmtbone::mesh::face_offset(f, e, n) + p], want)
              << "rank " << world.rank() << " e=" << e << " f=" << f
              << " p=" << p;
        }
      }
    }
  });
}

// ---- recovery supervisor: bit-identical recovery matrix ---------------------

// Capture every rank's full field state after the last step.
using FieldDump = std::map<int, std::vector<std::vector<double>>>;

std::function<void(Driver&, Comm&)> capture_into(FieldDump* dump,
                                                 std::mutex* mu) {
  return [dump, mu](Driver& d, Comm& world) {
    std::vector<std::vector<double>> mine(std::size_t(d.nfields()));
    for (int f = 0; f < d.nfields(); ++f) {
      auto span = d.field(f);
      mine[std::size_t(f)].assign(span.begin(), span.end());
    }
    std::lock_guard<std::mutex> lock(*mu);
    (*dump)[world.rank()] = std::move(mine);
  };
}

void expect_bit_identical(const FieldDump& a, const FieldDump& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [rank, fields] : a) {
    auto it = b.find(rank);
    ASSERT_NE(it, b.end()) << label << " rank " << rank;
    ASSERT_EQ(fields.size(), it->second.size()) << label << " rank " << rank;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      ASSERT_EQ(fields[f].size(), it->second[f].size())
          << label << " rank " << rank << " field " << f;
      for (std::size_t i = 0; i < fields[f].size(); ++i) {
        // Exact binary equality, not a tolerance: recovery replays the
        // deterministic solver from committed bytes.
        ASSERT_EQ(fields[f][i], it->second[f][i])
            << label << " rank " << rank << " field " << f << " index " << i;
      }
    }
  }
}

void run_recovery_matrix(int nranks, const fs::path& scratch,
                         int threads_per_rank = 1) {
  constexpr int kSteps = 9;
  constexpr int kInterval = 3;
  // The gs-crystal variants run dssum through the crystal router.
  struct Variant {
    const char* name;
    cmtbone::gs::Method method;
    bool overlap;
  };
  const Variant variants[] = {
      {"direct", cmtbone::gs::Method::kPairwise, false},
      {"direct+overlap", cmtbone::gs::Method::kPairwise, true},
      {"gs-crystal", cmtbone::gs::Method::kCrystalRouter, false},
      {"gs-crystal+overlap", cmtbone::gs::Method::kCrystalRouter, true},
  };
  for (const Variant& v : variants) {
    Config cfg = tiny_config();
    cfg.gs_method = v.method;
    cfg.overlap = v.overlap;
    cfg.threads_per_rank = 1;

    // Uninterrupted baseline, always serial: the kill/recover re-run below
    // uses threads_per_rank, so a threaded matrix also proves threaded
    // recovery lands on the serial answer bit for bit.
    FieldDump baseline;
    std::mutex mu;
    cmtbone::comm::run(nranks, [&](Comm& world) {
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      driver.run(kSteps);
      capture_into(&baseline, &mu)(driver, world);
    });
    cfg.threads_per_rank = threads_per_rank;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string label = std::string(v.name) + " ranks " +
                                std::to_string(nranks) + " seed " +
                                std::to_string(seed);
      fs::path dir = scratch / (std::string(v.name) + "_s" +
                                std::to_string(seed));
      fs::create_directories(dir);

      ChaosPolicy policy = ChaosPolicy::for_seed(seed, nranks);
      // Seed-derived kill placement sweeps early/mid/late steps and every
      // rank; one-shot so the recovered re-run completes.
      policy.kill_rank = int(mix64(seed * 1000003ull) % std::uint64_t(nranks));
      policy.kill_step = 1 + (long long)(mix64(seed * 7919ull) %
                                         std::uint64_t(kSteps));
      ChaosEngine engine(policy, nranks);

      FieldDump recovered;
      RecoveryPolicy rpolicy;
      rpolicy.max_retries = 3;
      rpolicy.backoff_initial_ms = 0.1;
      RecoveryOptions options;
      options.checkpoint.directory = dir.string();
      options.checkpoint.interval = kInterval;
      options.chaos = &engine;
      options.on_final = capture_into(&recovered, &mu);

      RecoveryReport report =
          run_with_recovery(nranks, cfg, kSteps, rpolicy, options);
      EXPECT_TRUE(report.completed) << label;
      EXPECT_GE(report.failures, 1) << label << ": kill never fired";
      EXPECT_GE(report.attempts, 2) << label;
      EXPECT_GE(report.stats.checkpoints, 1) << label;
      if (nranks > 1) {
        EXPECT_GE(report.stats.detections, 1) << label;
      }
      expect_bit_identical(baseline, recovered, label);
      fs::remove_all(dir);
    }
  }
}

TEST_F(ResilienceTest, RecoveryMatrix1Rank) { run_recovery_matrix(1, dir_); }
TEST_F(ResilienceTest, RecoveryMatrix2Ranks) { run_recovery_matrix(2, dir_); }
TEST_F(ResilienceTest, RecoveryMatrix4Ranks) { run_recovery_matrix(4, dir_); }
TEST_F(ResilienceTest, RecoveryMatrix2RanksThreaded) {
  // Chaos kill + checkpoint recovery with the worker pool active: the
  // mid-flight unwind must never leave a pool region dangling, and the
  // recovered threaded run must reproduce the serial baseline.
  run_recovery_matrix(2, dir_, /*threads_per_rank=*/2);
}

TEST_F(ResilienceTest, RecoverySurvivesCorruptPrimaryViaBuddy) {
  // Kill after epoch 6 committed, with rank 1's epoch-6 primary corrupted
  // at write time: recovery must restore epoch 6 from the buddy replica,
  // not silently fall back further, and still finish bit-identically.
  Config cfg = tiny_config();
  FieldDump baseline, recovered;
  std::mutex mu;
  cmtbone::comm::run(2, [&](Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(9);
    capture_into(&baseline, &mu)(driver, world);
  });

  ChaosPolicy policy;
  policy.seed = 5;
  policy.kill_rank = 0;
  policy.kill_step = 8;
  policy.corrupt_rank = 1;
  policy.corrupt_epoch = 6;
  ChaosEngine engine(policy, 2);
  RecoveryPolicy rpolicy;
  rpolicy.backoff_initial_ms = 0.1;
  RecoveryOptions options;
  options.checkpoint.directory = dir_.string();
  options.checkpoint.interval = 3;
  options.chaos = &engine;
  options.on_final = capture_into(&recovered, &mu);

  RecoveryReport report = run_with_recovery(2, cfg, 9, rpolicy, options);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.last_restored_epoch, 6);
  EXPECT_GE(report.stats.restores, 1);
  expect_bit_identical(baseline, recovered, "corrupt-primary");
}

TEST_F(ResilienceTest, RecoveryGivesUpAfterMaxRetries) {
  // abort_at_op (unlike kill_step) is NOT one-shot: the shared engine's op
  // counter keeps climbing, so every attempt dies and the supervisor must
  // eventually rethrow.
  ChaosPolicy policy;
  policy.seed = 13;
  policy.abort_rank = 0;
  policy.abort_at_op = 5;
  ChaosEngine engine(policy, 2);
  RecoveryPolicy rpolicy;
  rpolicy.max_retries = 2;
  rpolicy.backoff_initial_ms = 0.1;
  RecoveryOptions options;
  options.checkpoint.directory = dir_.string();
  options.checkpoint.interval = 3;
  options.chaos = &engine;
  EXPECT_THROW(run_with_recovery(2, tiny_config(), 6, rpolicy, options),
               ChaosAbortInjected);
}

TEST_F(ResilienceTest, RecoveryRequiresCheckpointDirectory) {
  RecoveryOptions options;  // no directory
  EXPECT_THROW(run_with_recovery(1, tiny_config(), 1, {}, options),
               std::invalid_argument);
}

// ---- decorrelated retry backoff --------------------------------------------

TEST(JitteredBackoff, ZeroJitterKeepsTheExactSchedule) {
  RecoveryPolicy policy;  // backoff_jitter defaults to 0
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(cmtbone::resilience::jittered_backoff_ms(policy, attempt, 8.0),
              8.0);
  }
}

TEST(JitteredBackoff, DrawsAreBoundedAndSeedDeterministic) {
  RecoveryPolicy policy;
  policy.backoff_jitter = 0.5;
  policy.backoff_seed = 42;
  bool saw_variation = false;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const double ms =
        cmtbone::resilience::jittered_backoff_ms(policy, attempt, 10.0);
    EXPECT_GE(ms, 5.0) << "attempt " << attempt;   // >= (1 - jitter) * base
    EXPECT_LE(ms, 10.0) << "attempt " << attempt;  // never longer than base
    EXPECT_EQ(ms,
              cmtbone::resilience::jittered_backoff_ms(policy, attempt, 10.0))
        << "attempt " << attempt;  // pure in (seed, attempt)
    if (ms != 10.0) saw_variation = true;
  }
  EXPECT_TRUE(saw_variation);
}

TEST(JitteredBackoff, SeedsDecorrelateTheHerd) {
  // Two jobs restarting off the same failure must not sleep in lockstep:
  // distinct seeds must produce distinct schedules somewhere early.
  RecoveryPolicy a, b;
  a.backoff_jitter = b.backoff_jitter = 0.5;
  a.backoff_seed = 1;
  b.backoff_seed = 2;
  bool differ = false;
  for (int attempt = 0; attempt < 8 && !differ; ++attempt) {
    differ = cmtbone::resilience::jittered_backoff_ms(a, attempt, 10.0) !=
             cmtbone::resilience::jittered_backoff_ms(b, attempt, 10.0);
  }
  EXPECT_TRUE(differ);
}

TEST(JitteredBackoff, OutOfRangeJitterIsClamped) {
  RecoveryPolicy policy;
  policy.backoff_jitter = 7.0;  // clamped to 1: sleeps in [0, base]
  policy.backoff_seed = 3;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const double ms =
        cmtbone::resilience::jittered_backoff_ms(policy, attempt, 10.0);
    EXPECT_GE(ms, 0.0);
    EXPECT_LE(ms, 10.0);
  }
}

// ---- checkpoint-ring pruning -----------------------------------------------

TEST_F(ResilienceTest, PruneKeepsNewestIgnoresForeignAndStagingFiles) {
  // Pre-seed the directory with what a prune scan can encounter: this
  // rank's stale primaries (epochs 1..5), another job's/rank's files, and
  // an in-progress atomic write's .tmp staging file. Content is irrelevant
  // to pruning — it goes by names only and must only ever delete files
  // this rank wrote.
  const std::string prefix = "ckpt";
  auto touch = [&](const std::string& name) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << "x";
  };
  for (long long e = 1; e <= 5; ++e) {
    touch(fs::path(CheckpointCoordinator::primary_path(dir_.string(), prefix,
                                                       e, 0))
              .filename()
              .string());
  }
  touch("ckpt.e000002.r00001.chk");       // foreign rank's primary
  touch("ckpt.e000001.r00000.chk.tmp");   // concurrent writer's staging file
  touch("other.e000001.r00000.chk");      // different prefix entirely

  cmtbone::comm::run(1, [&](Comm& world) {
    Driver driver(world, tiny_config());
    driver.initialize(driver.default_ic());
    driver.run(6);
    CheckpointOptions opt;
    opt.directory = dir_.string();
    opt.prefix = prefix;
    opt.interval = 0;  // explicit checkpoints only
    CheckpointCoordinator coord(world, opt);
    EXPECT_EQ(coord.checkpoint_now(driver), 6);
  });

  // Two newest epochs of this rank's primaries survive (5 and the fresh 6);
  // everything older is gone; everything not ours is untouched.
  auto exists = [&](const std::string& name) {
    return fs::exists(dir_ / name);
  };
  for (long long e = 1; e <= 4; ++e) {
    EXPECT_FALSE(fs::exists(
        CheckpointCoordinator::primary_path(dir_.string(), prefix, e, 0)))
        << "epoch " << e;
  }
  EXPECT_TRUE(fs::exists(
      CheckpointCoordinator::primary_path(dir_.string(), prefix, 5, 0)));
  EXPECT_TRUE(fs::exists(
      CheckpointCoordinator::primary_path(dir_.string(), prefix, 6, 0)));
  EXPECT_TRUE(exists("ckpt.e000002.r00001.chk"));
  EXPECT_TRUE(exists("ckpt.e000001.r00000.chk.tmp"));
  EXPECT_TRUE(exists("other.e000001.r00000.chk"));
}

TEST_F(ResilienceTest, PruneRacingAConcurrentWriterKeepsTheRingRestorable) {
  // A second writer mutates the directory the whole time the coordinator
  // checkpoints and prunes: publishing foreign-rank files via the same
  // atomic tmp+rename path (so staging files appear and vanish mid-scan)
  // and fsyncing its own churn. The prune must never touch the foreign
  // files, never delete this rank's newest epochs, and leave the ring
  // restorable when the dust settles.
  const std::string prefix = "ckpt";
  std::atomic<bool> stop{false};
  std::atomic<int> foreign_published{0};
  std::thread writer([&] {
    const std::vector<std::byte> payload(128, std::byte{0x5c});
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string path = CheckpointCoordinator::primary_path(
          dir_.string(), prefix, 1000 + i, /*rank=*/7);
      cmtbone::io::write_file_atomic(path, payload);
      foreign_published.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });

  const int steps = 30;
  cmtbone::comm::run(1, [&](Comm& world) {
    Driver driver(world, tiny_config());
    driver.initialize(driver.default_ic());
    CheckpointOptions opt;
    opt.directory = dir_.string();
    opt.prefix = prefix;
    opt.interval = 1;  // checkpoint + prune at every step, maximal churn
    CheckpointCoordinator coord(world, opt);
    driver.run(steps, [&](Driver& d) { coord.maybe_checkpoint(d); });
  });
  stop.store(true);
  writer.join();

  // The ring: exactly the two newest epochs remain restorable...
  int mine = 0;
  for (long long e = 1; e <= steps; ++e) {
    if (fs::exists(
            CheckpointCoordinator::primary_path(dir_.string(), prefix, e, 0))) {
      ++mine;
      EXPECT_GE(e, steps - 1) << "stale epoch survived the prune";
    }
  }
  EXPECT_EQ(mine, 2);
  // ...and they genuinely restore to the newest epoch.
  cmtbone::comm::run(1, [&](Comm& world) {
    Driver driver(world, tiny_config());
    CheckpointOptions opt;
    opt.directory = dir_.string();
    opt.prefix = prefix;
    CheckpointCoordinator coord(world, opt);
    EXPECT_EQ(coord.restore_latest(driver), steps);
    EXPECT_EQ(driver.steps_taken(), steps);
  });
  // The concurrent writer lost nothing: every foreign file it published is
  // still there (prune only deletes files this rank wrote).
  int foreign = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find(".r00007.chk") !=
        std::string::npos) {
      ++foreign;
    }
  }
  EXPECT_EQ(foreign, foreign_published.load());
}

}  // namespace

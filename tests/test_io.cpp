// I/O: checkpoint round trips, corruption handling, VTK export, and a
// driver's checkpoint restart through the checkpoint coordinator.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "io/checkpoint.hpp"
#include "io/vtk.hpp"
#include "resilience/checkpoint_coordinator.hpp"

namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cmtbone_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(IoTest, CheckpointRoundTripPreservesEverything) {
  cmtbone::io::CheckpointHeader header;
  header.n = 3;
  header.nel = 2;
  header.nfields = 2;
  header.steps = 42;
  header.time = 1.75;
  const std::size_t points = 3 * 3 * 3 * 2;
  std::vector<double> f0(points), f1(points);
  for (std::size_t i = 0; i < points; ++i) {
    f0[i] = double(i);
    f1[i] = -double(i) * 0.5;
  }
  const double* fields[] = {f0.data(), f1.data()};
  const std::vector<std::int32_t> owner = {1, 0, 0};
  std::string path = (dir_ / "ckpt.bin").string();
  cmtbone::io::write_file_atomic(
      path, cmtbone::io::serialize_checkpoint(
                header, std::span<const double* const>(fields, 2), points,
                std::span<const std::int32_t>(owner)));

  std::vector<std::vector<double>> loaded;
  std::vector<std::int32_t> loaded_owner;
  auto h = cmtbone::io::parse_checkpoint(cmtbone::io::read_file(path), path,
                                         &loaded, &loaded_owner);
  EXPECT_EQ(h.version, 3u);
  EXPECT_EQ(h.n, 3);
  EXPECT_EQ(h.nel, 2);
  EXPECT_EQ(h.steps, 42);
  EXPECT_DOUBLE_EQ(h.time, 1.75);
  EXPECT_EQ(h.total_elements, 3);
  EXPECT_EQ(loaded_owner, owner);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], f0);
  EXPECT_EQ(loaded[1], f1);
}

TEST_F(IoTest, ReadRejectsBadMagicAndTruncation) {
  std::string path = (dir_ / "bad.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  std::vector<std::vector<double>> fields;
  EXPECT_THROW(cmtbone::io::parse_checkpoint(cmtbone::io::read_file(path),
                                             path, &fields),
               std::runtime_error);

  // Valid version-3 header but truncated payload.
  cmtbone::io::CheckpointHeader header;
  header.n = 4;
  header.nel = 4;
  header.nfields = 1;
  header.total_elements = 4;
  std::string path2 = (dir_ / "trunc.bin").string();
  {
    std::ofstream out(path2, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&header), sizeof header);
    double only_one = 3.0;
    out.write(reinterpret_cast<const char*>(&only_one), sizeof only_one);
  }
  EXPECT_THROW(cmtbone::io::parse_checkpoint(cmtbone::io::read_file(path2),
                                             path2, &fields),
               std::runtime_error);
}

TEST(Checkpoint, RejectsVersionsOtherThan3) {
  // Well-formed files of the two earlier formats: version 1 is the 40-byte
  // header prefix with no CRC, version 2 the 56-byte prefix whose CRC
  // covers the fields (no owner map). Both are refused as unsupported.
  std::vector<double> payload(8);  // n=2 -> 8 points/element, one element
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = 1.5 * double(i);
  const std::size_t payload_bytes = payload.size() * sizeof(double);
  for (std::uint32_t version : {1u, 2u}) {
    cmtbone::io::CheckpointHeader h;
    h.version = version;
    h.n = 2;
    h.nel = 1;
    h.nfields = 1;
    h.steps = 9;
    h.time = 2.25;
    h.rank = 0;
    h.epoch = 4;
    h.payload_crc = cmtbone::io::crc32(payload.data(), payload_bytes);
    const std::size_t header_bytes = version == 1 ? 40 : 56;
    std::vector<std::byte> bytes(header_bytes + payload_bytes);
    std::memcpy(bytes.data(), &h, header_bytes);
    std::memcpy(bytes.data() + header_bytes, payload.data(), payload_bytes);
    std::vector<std::vector<double>> fields;
    try {
      cmtbone::io::parse_checkpoint(bytes, "old", &fields);
      ADD_FAILURE() << "version " << version << " was read";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(cmtbone::io::read_file((dir_ / "nope.bin").string()),
               std::runtime_error);
}

TEST_F(IoTest, VtkExportIsWellFormed) {
  std::string path = (dir_ / "out.vtk").string();
  std::vector<double> values = {1.0, 2.0, 3.0};
  cmtbone::io::write_vtk_points(
      path, 3,
      [](std::size_t p) {
        return std::array<double, 3>{double(p), 0.0, 0.0};
      },
      {{"u", std::span<const double>(values)}});
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("# vtk DataFile"), std::string::npos);
  EXPECT_NE(all.find("POINTS 3 double"), std::string::npos);
  EXPECT_NE(all.find("SCALARS u double 1"), std::string::npos);
  EXPECT_NE(all.find("POINT_DATA 3"), std::string::npos);
}

TEST_F(IoTest, VtkRejectsWrongFieldSize) {
  std::vector<double> values = {1.0};
  EXPECT_THROW(cmtbone::io::write_vtk_points(
                   (dir_ / "bad.vtk").string(), 3,
                   [](std::size_t) {
                     return std::array<double, 3>{0, 0, 0};
                   },
                   {{"u", std::span<const double>(values)}}),
               std::runtime_error);
}

// --- driver-level checkpoint/restart -----------------------------------------

TEST_F(IoTest, DriverCheckpointRestartResumesExactly) {
  using cmtbone::core::Config;
  using cmtbone::core::Driver;
  Config cfg;
  cfg.n = 4;
  cfg.ex = cfg.ey = cfg.ez = 2;
  cfg.fixed_dt = 1e-3;
  std::string dir = dir_.string();

  // Run 6 steps straight through.
  std::vector<double> straight;
  cmtbone::comm::run(2, [&](cmtbone::comm::Comm& world) {
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.run(6);
    if (world.rank() == 0) {
      auto f = driver.field(0);
      straight.assign(f.begin(), f.end());
    }
  });

  // Run 3 steps, checkpoint through the coordinator, restore into a fresh
  // driver, run 3 more.
  std::vector<double> resumed;
  cmtbone::comm::run(2, [&](cmtbone::comm::Comm& world) {
    cmtbone::resilience::CheckpointOptions options;
    options.directory = dir;
    options.prefix = "half";
    options.interval = 0;  // explicit checkpoints only
    {
      Driver driver(world, cfg);
      driver.initialize(driver.default_ic());
      driver.run(3);
      cmtbone::resilience::CheckpointCoordinator coordinator(world, options);
      EXPECT_EQ(coordinator.checkpoint_now(driver), 3);
    }
    Driver fresh(world, cfg);
    cmtbone::resilience::CheckpointCoordinator coordinator(world, options);
    EXPECT_EQ(coordinator.restore_latest(fresh), 3);
    EXPECT_EQ(fresh.steps_taken(), 3);
    EXPECT_NEAR(fresh.time(), 3e-3, 1e-15);
    fresh.run(3);
    if (world.rank() == 0) {
      auto f = fresh.field(0);
      resumed.assign(f.begin(), f.end());
    }
  });

  ASSERT_EQ(straight.size(), resumed.size());
  for (std::size_t i = 0; i < straight.size(); ++i) {
    ASSERT_EQ(straight[i], resumed[i]) << "index " << i;
  }
}

TEST_F(IoTest, DriverLoadRejectsGeometryMismatch) {
  using cmtbone::core::Config;
  using cmtbone::core::Driver;
  cmtbone::comm::run(1, [&](cmtbone::comm::Comm& world) {
    Config cfg;
    cfg.n = 4;
    cfg.ex = cfg.ey = cfg.ez = 2;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    const std::vector<std::byte> bytes = driver.serialize_checkpoint(0);

    Config other = cfg;
    other.n = 5;
    Driver wrong(world, other);
    EXPECT_THROW(wrong.restore_checkpoint(bytes, "geom"), std::runtime_error);
  });
}

TEST_F(IoTest, DriverVtkExportWritesAllFields) {
  using cmtbone::core::Config;
  using cmtbone::core::Driver;
  std::string path = (dir_ / "driver.vtk").string();
  cmtbone::comm::run(1, [&](cmtbone::comm::Comm& world) {
    Config cfg;
    cfg.n = 3;
    cfg.ex = cfg.ey = cfg.ez = 1;
    Driver driver(world, cfg);
    driver.initialize(driver.default_ic());
    driver.export_vtk(path);
  });
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("SCALARS rho double 1"), std::string::npos);
  EXPECT_NE(all.find("SCALARS energy double 1"), std::string::npos);
  EXPECT_NE(all.find("POINTS 27 double"), std::string::npos);
}

TEST(DriverFlops, ModelScalesWithConfiguration) {
  using cmtbone::core::Config;
  using cmtbone::core::Driver;
  cmtbone::comm::run(1, [](cmtbone::comm::Comm& world) {
    Config cfg;
    cfg.n = 6;
    cfg.ex = cfg.ey = cfg.ez = 2;
    Driver d6(world, cfg);
    Config cfg2 = cfg;
    cfg2.integrator = cmtbone::core::TimeIntegrator::kForwardEuler;
    Driver d1(world, cfg2);
    EXPECT_EQ(d6.flops_per_step(), 3 * d6.flops_per_rhs());
    EXPECT_EQ(d1.flops_per_step(), d1.flops_per_rhs());
    EXPECT_GT(d6.flops_per_rhs(), 0);
  });
}

// ---- write_file_atomic error paths -----------------------------------------
//
// The atomic-write contract under failure: the published name either keeps
// its previous contents or does not exist — never a torn file — and the
// .tmp staging file never lingers.

std::vector<std::byte> test_payload(std::size_t n, unsigned char fill) {
  return std::vector<std::byte>(n, std::byte{fill});
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Resets the injected short-write threshold even when an assertion bails
// out of the test early.
struct ShortWriteGuard {
  explicit ShortWriteGuard(long long bytes) {
    cmtbone::io::set_write_failure_after(bytes);
  }
  ~ShortWriteGuard() { cmtbone::io::set_write_failure_after(-1); }
};

TEST_F(IoTest, AtomicWriteIntoMissingDirectoryFailsCleanly) {
  const fs::path target = dir_ / "no_such_subdir" / "ckpt.bin";
  const auto bytes = test_payload(64, 0xab);
  EXPECT_THROW(cmtbone::io::write_file_atomic(target.string(), bytes),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
}

TEST_F(IoTest, AtomicWriteWithFileAsParentFailsCleanly) {
  const fs::path blocker = dir_ / "not_a_dir";
  { std::ofstream out(blocker); out << "occupied"; }
  const fs::path target = blocker / "ckpt.bin";
  const auto bytes = test_payload(64, 0xcd);
  EXPECT_THROW(cmtbone::io::write_file_atomic(target.string(), bytes),
               std::runtime_error);
  EXPECT_EQ(slurp(blocker), "occupied");  // the blocking file is untouched
}

TEST_F(IoTest, AtomicWriteIntoUnwritableDirectoryFailsCleanly) {
#ifndef _WIN32
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root ignores directory write permissions";
  }
  const fs::path locked = dir_ / "locked";
  fs::create_directories(locked);
  fs::permissions(locked, fs::perms::owner_read | fs::perms::owner_exec);
  const fs::path target = locked / "ckpt.bin";
  const auto bytes = test_payload(64, 0x11);
  EXPECT_THROW(cmtbone::io::write_file_atomic(target.string(), bytes),
               std::runtime_error);
  fs::permissions(locked, fs::perms::owner_all);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
#else
  GTEST_SKIP() << "POSIX permission test";
#endif
}

TEST_F(IoTest, InjectedShortWriteOnFreshPathLeavesNothingBehind) {
  const fs::path target = dir_ / "fresh.bin";
  const auto bytes = test_payload(256, 0x5a);
  {
    ShortWriteGuard enospc(32);  // device "fills up" after 32 bytes
    EXPECT_THROW(cmtbone::io::write_file_atomic(target.string(), bytes),
                 std::runtime_error);
    EXPECT_FALSE(fs::exists(target));
    EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  }
  // Space freed: the same write now succeeds end to end.
  cmtbone::io::write_file_atomic(target.string(), bytes);
  EXPECT_EQ(fs::file_size(target), bytes.size());
}

TEST_F(IoTest, InjectedShortWriteNeverTearsThePublishedFile) {
  const fs::path target = dir_ / "published.bin";
  const auto old_bytes = test_payload(128, 0x22);
  cmtbone::io::write_file_atomic(target.string(), old_bytes);
  const std::string before = slurp(target);

  const auto new_bytes = test_payload(256, 0x77);
  {
    ShortWriteGuard enospc(200);  // fails mid-payload, past the old size
    EXPECT_THROW(cmtbone::io::write_file_atomic(target.string(), new_bytes),
                 std::runtime_error);
  }
  // The short write died in the staging file: the published name still
  // carries the previous contents byte for byte, and no .tmp lingers.
  EXPECT_EQ(slurp(target), before);
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));

  const std::string msg = [&] {
    ShortWriteGuard enospc(200);
    try {
      cmtbone::io::write_file_atomic(target.string(), new_bytes);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string();
  }();
  EXPECT_NE(msg.find("short write"), std::string::npos) << msg;
}

}  // namespace

// Utilities: byte copies, CLI parsing, RNG, tables.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using cmtbone::util::Cli;
using cmtbone::util::SplitMix64;

TEST(CopyBytes, CopiesAndToleratesNullWithZeroLength) {
  // The degenerate-topology shape: an empty std::vector's data() may be
  // null, and raw memcpy(null, null, 0) is UB. copy_bytes must be a clean
  // no-op there and an exact copy otherwise.
  cmtbone::util::copy_bytes(nullptr, nullptr, 0);

  std::vector<double> empty_src, empty_dst;
  cmtbone::util::copy_bytes(empty_dst.data(), empty_src.data(), 0);

  std::vector<int> src = {1, 2, 3, 4}, dst(4, 0);
  cmtbone::util::copy_bytes(dst.data(), src.data(), 4 * sizeof(int));
  EXPECT_EQ(dst, src);

  std::vector<double> dsrc = {0.5, -1.25, 3.75}, ddst(3, 0.0);
  cmtbone::util::copy_bytes(ddst.data(), dsrc.data(),
                            dsrc.size() * sizeof(double));
  EXPECT_EQ(ddst, dsrc);
}

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  // A bare flag followed by a positional is ambiguous, so positionals come
  // first (or flags use --key=value); see cli.hpp.
  const char* argv[] = {"prog", "input.txt", "--ranks", "16",
                        "--verbose", "--cfl=0.25"};
  Cli cli(6, argv);
  cli.describe("ranks", "").describe("verbose", "").describe("cfl", "");
  EXPECT_EQ(cli.get_int("ranks", 0), 16);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_DOUBLE_EQ(cli.get_double("cfl", 0.0), 0.25);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_NO_THROW(cli.reject_unknown());
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 10), 10);
  EXPECT_EQ(cli.get("name", "x"), "x");
  EXPECT_FALSE(cli.help_requested());
}

TEST(Cli, RejectUnknownThrowsOnTypo) {
  const char* argv[] = {"prog", "--rnaks", "16"};
  Cli cli(3, argv);
  cli.describe("ranks", "rank count");
  EXPECT_THROW(cli.reject_unknown(), std::runtime_error);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, UniformInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, RankSeedsDistinct) {
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 256; ++r) {
    seeds.insert(cmtbone::util::rank_seed(1, r));
  }
  EXPECT_EQ(seeds.size(), 256u);
}

TEST(Table, FormatsAlignedColumns) {
  cmtbone::util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  std::string s = t.str();
  // Columns pad to max(header, cell) width: "value" is 5 wide.
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCells) {
  cmtbone::util::Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "say \"hi\""});
  std::string csv = t.csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",\"say \"\"hi\"\"\"\n"), std::string::npos);
}

TEST(Table, NumericHelpers) {
  EXPECT_EQ(cmtbone::util::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(cmtbone::util::Table::pct(0.125, 1), "12.5%");
  EXPECT_EQ(cmtbone::util::Table::sci(1234.5, 2), "1.23e+03");
}

}  // namespace

#pragma once
// Shared setup for the figure-reproduction benches: a profiled CMT-bone run
// at a configurable (default laptop-friendly) scale.
//
// The paper's communication figures (8-10) all come from one profiled
// CMT-bone execution; fig8/fig9/fig10 each perform an equivalent run and
// print their slice of the per-rank profiles.

#include <fstream>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace cmtbone::bench {

struct ProfiledRun {
  int ranks = 8;
  core::Config config;
  int steps = 5;
  std::string csv_dir;  // when set, benches also write <csv_dir>/<name>.csv
};

/// Write a table as CSV into `dir` (no-op when dir is empty).
inline void write_csv(const std::string& dir, const std::string& name,
                      const util::Table& table) {
  if (dir.empty()) return;
  std::ofstream out(dir + "/" + name + ".csv");
  out << table.csv();
  std::printf("(csv written to %s/%s.csv)\n", dir.c_str(), name.c_str());
}

inline ProfiledRun parse_run(int argc, char** argv, int default_steps = 3,
                             int default_n = 10) {
  util::Cli cli(argc, argv);
  cli.describe("ranks", "number of ranks (default 8)")
      .describe("n", "GLL points per direction (default 10)")
      .describe("elems", "global elements per direction (default 8)")
      .describe("steps", "time steps")
      .describe("csv-dir", "also write result tables as CSV into this directory")
      .describe("paper-scale",
                "use the paper's Fig. 7 scale: 256 ranks, 40x40x16 elements, "
                "N=10 (slow on one core)");
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    std::exit(0);
  }
  cli.reject_unknown();

  ProfiledRun run;
  run.csv_dir = cli.get("csv-dir", "");
  if (cli.has("paper-scale")) {
    run.ranks = 256;
    run.config.n = 10;
    run.config.ex = 40;
    run.config.ey = 40;
    run.config.ez = 16;
    run.config.px = 8;
    run.config.py = 8;
    run.config.pz = 4;
    run.steps = 1;
  } else {
    run.ranks = cli.get_int("ranks", 8);
    run.config.n = cli.get_int("n", default_n);
    run.config.ex = run.config.ey = run.config.ez = cli.get_int("elems", 8);
    run.steps = cli.get_int("steps", default_steps);
  }
  return run;
}

/// Execute the proxy mini-app; returns each rank's profile (call tree,
/// comm operations per region, wall time), indexed by rank.
inline std::vector<prof::CallProfile> execute(const ProfiledRun& run) {
  std::vector<prof::CallProfile> profiles;
  comm::RunOptions opts;
  opts.call_profiles = &profiles;
  comm::run(run.ranks, [&](comm::Comm& world) {
    core::Driver driver(world, run.config);
    driver.initialize(driver.default_ic());
    driver.run(run.steps);
  }, opts);
  return profiles;
}

}  // namespace cmtbone::bench

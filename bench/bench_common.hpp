#pragma once
// Shared setup for the figure-reproduction benches: a profiled CMT-bone run
// at a configurable (default laptop-friendly) scale.
//
// The paper's communication figures (8-10) all come from one profiled
// CMT-bone execution; fig8/fig9/fig10 each perform an equivalent run and
// print their slice of the per-rank profiles. The CI timing gates share
// one paired comparison, paired_ratio().

#include <algorithm>
#include <fstream>
#include <functional>
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
                "N=10 (default 1 step; a 1-step run takes about 13 s and "
                "5 GB on a 4-core host, each further step about 1.5 s)");
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
    run.steps = cli.get_int("steps", 1);
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

/// The q-quantile (0 <= q <= 1) of `xs`, nearest rank; q = 0.5 picks the
/// upper median of an even count.
inline double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return xs[std::size_t(q * double(xs.size() - 1) + 0.5)];
}

/// The median and quartiles of the per-pair ratios candidate / reference
/// from paired_ratio(), with each side's median sample.
struct PairedRatio {
  double median = 0, q1 = 0, q3 = 0;
  double reference_median = 0, candidate_median = 0;
  int pairs = 0;
};

/// Runs `reference` and `candidate`, each returning one timed sample (in
/// seconds, or any cost), in `pairs` back-to-back pairs, alternating which
/// goes first, and returns the median and quartiles of the per-pair ratios
/// candidate / reference. Host drift between pairs then cancels instead of
/// landing in the ratio. Every overhead gate reads its median.
inline PairedRatio paired_ratio(int pairs,
                                const std::function<double()>& reference,
                                const std::function<double()>& candidate) {
  std::vector<double> ref, cand, ratios;
  for (int pair = 0; pair < pairs; ++pair) {
    double r, c;
    if (pair % 2 == 0) {
      r = reference();
      c = candidate();
    } else {
      c = candidate();
      r = reference();
    }
    ref.push_back(r);
    cand.push_back(c);
    ratios.push_back(c / r);
  }
  PairedRatio out;
  out.pairs = pairs;
  out.median = quantile(ratios, 0.5);
  out.q1 = quantile(ratios, 0.25);
  out.q3 = quantile(ratios, 0.75);
  out.reference_median = quantile(ref, 0.5);
  out.candidate_median = quantile(cand, 0.5);
  return out;
}

}  // namespace cmtbone::bench

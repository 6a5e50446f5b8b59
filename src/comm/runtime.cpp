#include "comm/runtime.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "prof/timer.hpp"

namespace cmtbone::comm {

void run(int nranks, const std::function<void(Comm&)>& body,
         const RunOptions& options) {
  if (nranks <= 0) throw std::invalid_argument("comm::run: nranks must be > 0");
  if (options.chaos != nullptr && options.chaos->nranks() < nranks) {
    throw std::invalid_argument(
        "comm::run: chaos engine sized for fewer ranks than the job");
  }
  if (options.tracer != nullptr && options.tracer->nranks() < nranks) {
    throw std::invalid_argument(
        "comm::run: trace recorder sized for fewer ranks than the job");
  }

  Universe universe(nranks, options.tracer, options.chaos);
  universe.set_epoch(options.epoch);
  std::vector<std::exception_ptr> errors(nranks);
  // Per-rank failure-detection latency, sampled at the moment a survivor's
  // blocked operation unwound (< 0 = this rank observed no failure). Each
  // slot is written only by its own rank thread and read after join.
  std::vector<double> detection(nranks, -1.0);
  if (options.call_profiles != nullptr) {
    options.call_profiles->clear();
    options.call_profiles->resize(nranks);
  }

  std::vector<std::thread> threads;
  threads.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      prof::reset_thread_profile();
      Comm world(universe, r);
      prof::WallTimer wall;
      try {
        body(world);
      } catch (const JobAborted&) {
        // The echo of a failure that originated elsewhere: record how long
        // this survivor took to notice, but do not claim the failure.
        errors[r] = std::current_exception();
        detection[r] = universe.seconds_since_failure();
        universe.abort();
      } catch (...) {
        // A real failure originating on this rank: attribute it so blocked
        // peers unwind with RankFailed instead of a bare abort (or, worse,
        // a spurious deadlock verdict).
        errors[r] = std::current_exception();
        universe.mark_failed(r);
      }
      universe.rank_finished();
      prof::thread_profile().set_wall_seconds(wall.seconds());
      if (options.call_profiles != nullptr) {
        (*options.call_profiles)[r] = std::move(prof::thread_profile());
        prof::reset_thread_profile();
      }
    });
  }
  for (auto& t : threads) t.join();

  if (options.recovery != nullptr) {
    for (double d : detection) {
      if (d < 0.0) continue;
      options.recovery->detections += 1;
      options.recovery->detection_seconds_sum += d;
      options.recovery->detection_seconds_max =
          std::max(options.recovery->detection_seconds_max, d);
    }
  }

  // Rethrow the first real failure; JobAborted is only the echo of it.
  std::exception_ptr aborted;
  for (const auto& err : errors) {
    if (!err) continue;
    try {
      std::rethrow_exception(err);
    } catch (const JobAborted&) {
      aborted = err;
    } catch (...) {
      std::rethrow_exception(err);
    }
  }
  if (aborted) std::rethrow_exception(aborted);
}

}  // namespace cmtbone::comm

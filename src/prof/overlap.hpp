#pragma once
// Accounting for the split-phase exchange window: how much compute ran
// between exchange begin() and finish(), and how long the finish-side wait
// still took. The ratio is the fraction of communication completion the
// overlap actually hid — the number the overlap_study bench reports.

namespace cmtbone::prof {

struct OverlapStats {
  long long windows = 0;        // exchanges whose window held work
  double begin_seconds = 0.0;   // post receives + pack + send
  double compute_seconds = 0.0; // work executed while messages were in flight
  double finish_seconds = 0.0;  // residual wait + unpack after the window

  void reset();

  /// compute / (compute + finish): 1.0 means the wait had fully drained by
  /// the time finish() was called; 0.0 means nothing was hidden (e.g. the
  /// blocking path, or an empty window). Zero-window stats report 0.
  double hidden_fraction() const;

  /// Seconds spent per window in the begin/finish halves combined — the
  /// exchange cost still on the critical path.
  double exposed_seconds_per_window() const;
};

}  // namespace cmtbone::prof

#pragma once
// Per-rank profile: the one record behind the paper's Fig. 4 call graph
// (gprof) and its Figs. 8-10 communication tables (mpiP).
//
// Usage: wrap regions in ScopedRegion. Each thread keeps its own tree (no
// locks on the hot path). The comm runtime counts every operation it
// completes on the innermost open region, so a comm call site is
// "<region>/<op>", mpiP's notion of a call site. Trees from all ranks are
// merged, or tabulated per rank, for reporting.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "prof/timer.hpp"
#include "util/table.hpp"

namespace cmtbone::prof {

/// The operations of the message-passing runtime (src/comm), one per MPI
/// call it mirrors.
enum class CommOp : std::uint8_t {
  kSend, kIsend, kRecv, kIrecv, kSendrecv,
  kWait, kWaitall,
  kBarrier, kBcast, kAllreduce, kGather, kGatherv,
  kAllgather, kAllgatherv, kAlltoallv, kScan,
};
inline constexpr std::size_t kCommOpCount = std::size_t(CommOp::kScan) + 1;

/// What the trace recorder logs for an operation.
enum class TraceRole : std::uint8_t {
  kNone,            // posts: nothing
  kSend,            // one send to the operation's peer
  kRecvCompletion,  // each receive the call completed
  kSendRecv,        // a send, then the receive the call completed
  kCollective,      // one whole-communicator event
};

struct CommOpInfo {
  const char* name;
  TraceRole role;
};

inline constexpr std::array<CommOpInfo, kCommOpCount> kCommOps = {{
    {"MPI_Send", TraceRole::kSend},
    {"MPI_Isend", TraceRole::kSend},
    {"MPI_Recv", TraceRole::kRecvCompletion},
    {"MPI_Irecv", TraceRole::kNone},
    {"MPI_Sendrecv", TraceRole::kSendRecv},
    {"MPI_Wait", TraceRole::kRecvCompletion},
    {"MPI_Waitall", TraceRole::kRecvCompletion},
    {"MPI_Barrier", TraceRole::kCollective},
    {"MPI_Bcast", TraceRole::kCollective},
    {"MPI_Allreduce", TraceRole::kCollective},
    {"MPI_Gather", TraceRole::kCollective},
    {"MPI_Gatherv", TraceRole::kCollective},
    {"MPI_Allgather", TraceRole::kCollective},
    {"MPI_Allgatherv", TraceRole::kCollective},
    {"MPI_Alltoallv", TraceRole::kCollective},
    {"MPI_Scan", TraceRole::kCollective},
}};
static_assert(kCommOps.back().name != nullptr, "one kCommOps entry per op");

constexpr const char* comm_op_name(CommOp op) {
  return kCommOps[std::size_t(op)].name;
}
constexpr TraceRole trace_role(CommOp op) {
  return kCommOps[std::size_t(op)].role;
}

/// Comm operations of one kind counted on one region.
struct CommStat {
  long calls = 0;
  double seconds = 0.0;
  long long bytes = 0;  // payload bytes the calls moved (0 for waits)
};

struct CallNode {
  const char* name = "<root>";  // static storage (a literal at every site)
  long calls = 0;
  double seconds = 0.0;  // inclusive
  std::vector<std::unique_ptr<CallNode>> children;  // first-entry order
  std::array<CommStat, kCommOpCount> comm{};  // indexed by CommOp

  /// The child called `child_name`, created on first entry. Matches the
  /// pointer first, then the text (one name may have several addresses).
  CallNode* child(const char* child_name);
  /// Inclusive time minus children's inclusive time.
  double exclusive_seconds() const;
};

/// One thread's (rank's) call tree with its comm counters.
class CallProfile {
 public:
  CallProfile();

  void enter(const char* name);
  void leave(double seconds);

  /// Count one completed comm operation on the innermost open region.
  void count(CommOp op, double seconds, long long bytes) {
    CommStat& s = stack_.back()->comm[std::size_t(op)];
    s.calls += 1;
    s.seconds += seconds;
    s.bytes += bytes;
  }

  const CallNode& root() const { return *root_; }

  /// Wall seconds of the rank body; comm::run sets it when the body
  /// returns. The denominator of the Fig. 8 fractions.
  double wall_seconds() const { return wall_seconds_; }
  void set_wall_seconds(double s) { wall_seconds_ = s; }

  /// Merge `other` into this tree (used to aggregate ranks).
  void merge(const CallProfile& other);

  /// Flat profile: name -> {calls, inclusive, exclusive} summed over all
  /// occurrences in the tree.
  struct FlatEntry {
    std::string name;
    long calls = 0;
    double inclusive = 0.0;
    double exclusive = 0.0;
  };
  std::vector<FlatEntry> flat() const;
  /// The flat entry of `name` (all zero when no region has that name).
  FlatEntry region(std::string_view name) const;

  /// Total profiled time (sum of root children inclusive).
  double total_seconds() const;
  /// Seconds spent in comm operations, over the whole tree.
  double comm_seconds() const;

  /// gprof-style indented tree rendering with percentages of total.
  std::string tree_report() const;

 private:
  std::unique_ptr<CallNode> root_;
  std::vector<CallNode*> stack_;
  double wall_seconds_ = 0.0;
};

/// Profile for the current thread. Each rank thread gets its own instance.
CallProfile& thread_profile();
/// Reset the current thread's profile (between benchmark repetitions). Call
/// it outside any region.
void reset_thread_profile();

/// RAII region marker on the current thread's profile. The name must be a
/// string literal: nodes keep the pointer.
class ScopedRegion {
 public:
  template <std::size_t N>
  explicit ScopedRegion(const char (&name)[N]) : profile_(enter(name)) {}
  ~ScopedRegion() { profile_.leave(timer_.seconds()); }

  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  static CallProfile& enter(const char* name) {
    CallProfile& profile = thread_profile();
    profile.enter(name);
    return profile;
  }

  CallProfile& profile_;  // entered before timer_ starts (member order)
  WallTimer timer_;
};

// --- comm tables over per-rank profiles (mpiP, Figs. 8-10) ------------------

/// One comm call site summed over ranks: "<innermost region>/<op>", or the
/// bare op name outside every region.
struct SiteTotal {
  std::string site;
  long calls = 0;
  double seconds = 0.0;
  long long total_bytes = 0;
  double avg_bytes = 0.0;
};

/// Every site over `ranks`, sorted by time, heaviest first.
std::vector<SiteTotal> site_totals(std::span<const CallProfile> ranks);
/// Fraction of each rank's wall time spent in comm operations.
std::vector<double> comm_fraction_per_rank(std::span<const CallProfile> ranks);

/// Fig. 8: wall and comm seconds of each rank.
util::Table comm_fraction_table(std::span<const CallProfile> ranks);
/// Fig. 9: the `n` sites with the most time.
util::Table top_sites_table(std::span<const CallProfile> ranks, int n);
/// Fig. 10: total and average bytes of the `n` most called sites that move
/// data.
util::Table message_sizes_table(std::span<const CallProfile> ranks, int n);

}  // namespace cmtbone::prof

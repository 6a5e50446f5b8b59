#include "prof/callprof.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>

namespace cmtbone::prof {

CallNode* CallNode::child(const char* child_name) {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  for (const auto& c : children) {
    if (std::strcmp(c->name, child_name) == 0) return c.get();
  }
  children.push_back(std::make_unique<CallNode>());
  children.back()->name = child_name;
  return children.back().get();
}

double CallNode::exclusive_seconds() const {
  double s = seconds;
  for (const auto& node : children) s -= node->seconds;
  return s;
}

CallProfile::CallProfile() : root_(std::make_unique<CallNode>()) {
  stack_.push_back(root_.get());
}

void CallProfile::enter(const char* name) {
  CallNode* node = stack_.back()->child(name);
  node->calls += 1;
  stack_.push_back(node);
}

void CallProfile::leave(double seconds) {
  stack_.back()->seconds += seconds;
  stack_.pop_back();
}

void CallProfile::merge(const CallProfile& other) {
  std::function<void(CallNode&, const CallNode&)> rec =
      [&rec](CallNode& dst, const CallNode& src) {
        dst.calls += src.calls;
        dst.seconds += src.seconds;
        for (std::size_t op = 0; op < kCommOpCount; ++op) {
          dst.comm[op].calls += src.comm[op].calls;
          dst.comm[op].seconds += src.comm[op].seconds;
          dst.comm[op].bytes += src.comm[op].bytes;
        }
        for (const auto& child : src.children) {
          rec(*dst.child(child->name), *child);
        }
      };
  rec(*root_, other.root());
  wall_seconds_ += other.wall_seconds_;
}

std::vector<CallProfile::FlatEntry> CallProfile::flat() const {
  std::map<std::string, FlatEntry> acc;
  std::function<void(const CallNode&)> rec = [&](const CallNode& node) {
    if (&node != root_.get()) {
      FlatEntry& e = acc[node.name];
      e.name = node.name;
      e.calls += node.calls;
      e.inclusive += node.seconds;
      e.exclusive += node.exclusive_seconds();
    }
    for (const auto& child : node.children) rec(*child);
  };
  rec(*root_);

  std::vector<FlatEntry> out;
  out.reserve(acc.size());
  for (auto& [name, e] : acc) {
    (void)name;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(), [](const FlatEntry& a, const FlatEntry& b) {
    return a.exclusive > b.exclusive;
  });
  return out;
}

CallProfile::FlatEntry CallProfile::region(std::string_view name) const {
  for (FlatEntry& e : flat()) {
    if (e.name == name) return e;
  }
  return FlatEntry{std::string(name)};
}

double CallProfile::total_seconds() const {
  double s = 0.0;
  for (const auto& child : root_->children) s += child->seconds;
  return s;
}

double CallProfile::comm_seconds() const {
  double s = 0.0;
  std::function<void(const CallNode&)> rec = [&](const CallNode& node) {
    for (const CommStat& c : node.comm) s += c.seconds;
    for (const auto& child : node.children) rec(*child);
  };
  rec(*root_);
  return s;
}

std::string CallProfile::tree_report() const {
  std::ostringstream os;
  double total = total_seconds();
  if (total <= 0.0) total = 1.0;
  std::function<void(const CallNode&, int)> rec = [&](const CallNode& node,
                                                      int depth) {
    if (&node != root_.get()) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%*s%-*s %10.4fs %6.1f%% calls=%ld\n",
                    depth * 2, "", 36 - depth * 2, node.name, node.seconds,
                    100.0 * node.seconds / total, node.calls);
      os << buf;
    }
    // Children ordered by inclusive time, heaviest first.
    std::vector<const CallNode*> kids;
    for (const auto& child : node.children) kids.push_back(child.get());
    std::sort(kids.begin(), kids.end(), [](const CallNode* a, const CallNode* b) {
      return a->seconds > b->seconds;
    });
    for (const CallNode* kid : kids) rec(*kid, depth + 1);
  };
  rec(*root_, -1);
  return os.str();
}

namespace {
thread_local std::unique_ptr<CallProfile> t_profile;
}

CallProfile& thread_profile() {
  if (!t_profile) t_profile = std::make_unique<CallProfile>();
  return *t_profile;
}

void reset_thread_profile() { t_profile = std::make_unique<CallProfile>(); }

// --- comm tables ----------------------------------------------------------

std::vector<SiteTotal> site_totals(std::span<const CallProfile> ranks) {
  std::map<std::string, SiteTotal> acc;
  for (const CallProfile& profile : ranks) {
    std::function<void(const CallNode&)> rec = [&](const CallNode& node) {
      for (std::size_t op = 0; op < kCommOpCount; ++op) {
        const CommStat& stat = node.comm[op];
        if (stat.calls == 0) continue;
        std::string site = comm_op_name(CommOp(op));
        if (&node != &profile.root()) site = node.name + ("/" + site);
        SiteTotal& t = acc[site];
        t.site = site;
        t.calls += stat.calls;
        t.seconds += stat.seconds;
        t.total_bytes += stat.bytes;
      }
      for (const auto& child : node.children) rec(*child);
    };
    rec(profile.root());
  }
  std::vector<SiteTotal> out;
  out.reserve(acc.size());
  for (auto& [site, t] : acc) {
    (void)site;
    t.avg_bytes = t.calls > 0 ? double(t.total_bytes) / double(t.calls) : 0.0;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), [](const SiteTotal& a, const SiteTotal& b) {
    return a.seconds > b.seconds;
  });
  return out;
}

std::vector<double> comm_fraction_per_rank(std::span<const CallProfile> ranks) {
  std::vector<double> out(ranks.size(), 0.0);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const double wall = ranks[r].wall_seconds();
    if (wall > 0.0) out[r] = ranks[r].comm_seconds() / wall;
  }
  return out;
}

util::Table comm_fraction_table(std::span<const CallProfile> ranks) {
  util::Table t({"rank", "wall (s)", "comm (s)", "% in comm"});
  t.set_title("Time spent by each rank in communication routines (Fig. 8)");
  const std::vector<double> frac = comm_fraction_per_rank(ranks);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    t.add_row({std::to_string(r), util::Table::num(ranks[r].wall_seconds(), 4),
               util::Table::num(ranks[r].comm_seconds(), 4),
               util::Table::pct(frac[r])});
  }
  return t;
}

util::Table top_sites_table(std::span<const CallProfile> ranks, int n) {
  util::Table t({"call site", "calls", "time (s)", "% of comm time"});
  t.set_title("Time spent in the top " + std::to_string(n) +
              " comm call sites (Fig. 9)");
  const std::vector<SiteTotal> sites = site_totals(ranks);
  double total = 0.0;
  for (const auto& s : sites) total += s.seconds;
  if (total <= 0.0) total = 1.0;
  int shown = 0;
  for (const auto& s : sites) {
    if (shown++ == n) break;
    t.add_row({s.site, std::to_string(s.calls), util::Table::num(s.seconds, 6),
               util::Table::pct(s.seconds / total)});
  }
  return t;
}

util::Table message_sizes_table(std::span<const CallProfile> ranks, int n) {
  util::Table t({"call site", "calls", "total bytes", "avg bytes/msg"});
  t.set_title("Total and average message sizes per comm call site (Fig. 10)");
  std::vector<SiteTotal> sites = site_totals(ranks);
  // Fig. 10 covers the most frequently *called* sites that move data.
  std::sort(sites.begin(), sites.end(),
            [](const SiteTotal& a, const SiteTotal& b) { return a.calls > b.calls; });
  int shown = 0;
  for (const auto& s : sites) {
    if (s.total_bytes == 0) continue;
    if (shown++ == n) break;
    t.add_row({s.site, std::to_string(s.calls), std::to_string(s.total_bytes),
               util::Table::num(s.avg_bytes, 1)});
  }
  return t;
}

}  // namespace cmtbone::prof

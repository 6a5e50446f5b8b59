#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace cmtbone::util::detail {

namespace {
std::mutex g_mutex;
}  // namespace

void write_warn_line(const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[warn ] %s\n", msg.c_str());
}

}  // namespace cmtbone::util::detail

#pragma once
// Warning lines on stderr. Thread-safe; each line is written atomically so
// logs from 256 in-process ranks interleave by line, never by character.

#include <sstream>
#include <string>

namespace cmtbone::util {

namespace detail {
// Write "[warn ] <msg>" and a newline to stderr as one line.
void write_warn_line(const std::string& msg);

class LineStream {
 public:
  ~LineStream() { write_warn_line(os_.str()); }
  template <class T>
  LineStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  std::ostringstream os_;
};
}  // namespace detail

/// `log_warn() << a << b;` writes one warning line when the statement ends.
inline detail::LineStream log_warn() { return detail::LineStream(); }

}  // namespace cmtbone::util

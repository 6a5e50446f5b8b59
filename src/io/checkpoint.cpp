#include "io/checkpoint.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/bytes.hpp"

namespace cmtbone::io {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint " + path + ": " + what);
}

void check_plausible(const CheckpointHeader& h, const std::string& path) {
  CheckpointHeader expected;
  if (h.magic != expected.magic) fail(path, "bad magic");
  if (h.version != kCheckpointVersion) {
    fail(path, "unsupported version " + std::to_string(h.version) +
                   " (only version " + std::to_string(kCheckpointVersion) +
                   " is read)");
  }
  if (h.n < 2 || h.nel < 0 || h.nfields < 0) fail(path, "implausible header");
  if (h.total_elements < h.nel) {
    fail(path, "implausible header (owner map shorter than local count)");
  }
}
}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  // Standard reflected IEEE polynomial, sliced by 8: table[k][b] is the CRC
  // of byte b followed by k zero bytes, so one 8-byte word folds in with
  // eight independent lookups, and the tail goes a byte at a time.
  static_assert(std::endian::native == std::endian::little,
                "the word loop folds the low byte first");
  using Table = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Table table = [] {
    Table t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; bytes >= 8; bytes -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    word ^= crc;
    crc = table[7][word & 0xffu] ^ table[6][(word >> 8) & 0xffu] ^
          table[5][(word >> 16) & 0xffu] ^ table[4][(word >> 24) & 0xffu] ^
          table[3][(word >> 32) & 0xffu] ^ table[2][(word >> 40) & 0xffu] ^
          table[1][(word >> 48) & 0xffu] ^ table[0][word >> 56];
  }
  for (; bytes > 0; --bytes, ++p) {
    crc = table[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

ChecksumMismatch::ChecksumMismatch(std::string file_path, int file_rank,
                                   long long file_epoch,
                                   std::uint32_t expected, std::uint32_t actual)
    : std::runtime_error("checkpoint " + file_path +
                         ": payload CRC mismatch (header says " +
                         std::to_string(expected) + ", payload hashes to " +
                         std::to_string(actual) + "; rank " +
                         std::to_string(file_rank) + ", epoch " +
                         std::to_string(file_epoch) + ")"),
      path(std::move(file_path)),
      rank(file_rank),
      epoch(file_epoch) {}

std::vector<std::byte> serialize_checkpoint(
    const CheckpointHeader& header, std::span<const double* const> fields,
    std::size_t points, std::span<const std::int32_t> owner) {
  if (int(fields.size()) != header.nfields) {
    throw std::runtime_error(
        "checkpoint serialize: field count does not match header");
  }
  if (static_cast<long long>(owner.size()) < header.nel) {
    throw std::runtime_error(
        "checkpoint serialize: owner map shorter than the local element "
        "count");
  }
  CheckpointHeader h = header;
  h.version = kCheckpointVersion;
  h.total_elements = static_cast<std::int64_t>(owner.size());
  const std::size_t owner_bytes = owner.size() * sizeof(std::int32_t);
  const std::size_t payload =
      owner_bytes + fields.size() * points * sizeof(double);
  std::vector<std::byte> out(kHeaderBytes + payload);
  std::byte* dst = out.data() + kHeaderBytes;
  util::copy_bytes(dst, owner.data(), owner_bytes);
  dst += owner_bytes;
  for (const double* field : fields) {
    util::copy_bytes(dst, field, points * sizeof(double));
    dst += points * sizeof(double);
  }
  h.payload_crc = crc32(out.data() + kHeaderBytes, payload);
  util::copy_bytes(out.data(), &h, kHeaderBytes);
  return out;
}

CheckpointHeader parse_checkpoint(std::span<const std::byte> bytes,
                                  const std::string& path,
                                  std::vector<std::vector<double>>* fields,
                                  std::vector<std::int32_t>* owner) {
  if (bytes.size() < kHeaderBytes) fail(path, "truncated header");
  CheckpointHeader header;
  util::copy_bytes(static_cast<void*>(&header), bytes.data(), kHeaderBytes);
  check_plausible(header, path);
  const std::size_t owner_bytes =
      std::size_t(header.total_elements) * sizeof(std::int32_t);
  const std::size_t points =
      std::size_t(header.n) * header.n * header.n * header.nel;
  const std::size_t payload =
      owner_bytes + std::size_t(header.nfields) * points * sizeof(double);
  if (bytes.size() != kHeaderBytes + payload) {
    fail(path, "payload size mismatch (truncated or trailing garbage)");
  }
  const std::byte* src = bytes.data() + kHeaderBytes;
  const std::uint32_t actual = crc32(src, payload);
  if (actual != header.payload_crc) {
    throw ChecksumMismatch(path, header.rank, header.epoch,
                           header.payload_crc, actual);
  }
  if (owner != nullptr) {
    owner->assign(std::size_t(header.total_elements), 0);
    util::copy_bytes(owner->data(), src, owner_bytes);
  }
  src += owner_bytes;
  if (fields != nullptr) {
    fields->assign(header.nfields, std::vector<double>(points));
    for (auto& field : *fields) {
      util::copy_bytes(field.data(), src, points * sizeof(double));
      src += points * sizeof(double);
    }
  }
  return header;
}

namespace {
// Injected short-write threshold (set_write_failure_after); < 0 = off.
std::atomic<long long> g_write_fail_after{-1};
}  // namespace

void set_write_failure_after(long long bytes) {
  g_write_fail_after.store(bytes, std::memory_order_relaxed);
}

void write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f) fail(path, "cannot open " + tmp + " for writing");
    const long long limit =
        g_write_fail_after.load(std::memory_order_relaxed);
    if (limit >= 0 && std::size_t(limit) < bytes.size()) {
      // Simulated ENOSPC: part of the payload lands in the tmp file, then
      // the device reports a short write. Follow the real short-write
      // path: remove the staging file, never touch the published name.
      (void)std::fwrite(bytes.data(), 1, std::size_t(limit), f.get());
      f = File(nullptr);
      std::remove(tmp.c_str());
      fail(path, "write failed: short write (injected ENOSPC after " +
                     std::to_string(limit) + " bytes)");
    }
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      std::remove(tmp.c_str());
      fail(path, "write failed");
    }
    if (std::fflush(f.get()) != 0) {
      std::remove(tmp.c_str());
      fail(path, "flush failed");
    }
#ifndef _WIN32
    // Push the bytes to stable storage before the rename publishes the
    // file: rename-then-sync could expose a zero-length file after a crash.
    if (::fsync(::fileno(f.get())) != 0) {
      std::remove(tmp.c_str());
      fail(path, "fsync failed");
    }
#endif
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    fail(path, "rename from " + tmp + " failed: " + ec.message());
  }
}

std::vector<std::byte> read_file(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) fail(path, "cannot open for reading");
  if (std::fseek(f.get(), 0, SEEK_END) != 0) fail(path, "seek failed");
  const long size = std::ftell(f.get());
  if (size < 0) fail(path, "tell failed");
  if (std::fseek(f.get(), 0, SEEK_SET) != 0) fail(path, "seek failed");
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    fail(path, "read failed");
  }
  return bytes;
}

}  // namespace cmtbone::io

#pragma once
// Checkpoint bytes and the durable file primitives under them.
//
// Production Nek runs checkpoint conserved variables so long simulations
// survive machine faults; the mini-app carries the same capability so its
// I/O phase can be profiled alongside compute and comm. core::Driver turns
// one rank's state into these bytes and back; the resilience layer's
// CheckpointCoordinator is the one place that names, writes, finds and
// loads checkpoint files (one per rank and epoch, plus a buddy replica).
//
// Format (version 3, the only version written or read): a fixed 64-byte
// little-endian header (magic, version, n, nel, nfields, steps, time, a
// CRC32 of the payload, the writing rank, the checkpoint epoch and the
// global element count), then the payload: the element-ownership map
// (total_elements int32 owner ranks, the replicated gid -> rank map) and
// the raw field data. The CRC covers the whole payload.
//
// Durability contract (the resilience layer depends on it):
//   * Writes are torn-write-safe: the bytes go to `<path>.tmp`, are
//     fsync'd, and only then renamed over `path`, so a crash mid-write
//     never leaves a truncated file under the real name.
//   * Parsing verifies the payload CRC32 and throws ChecksumMismatch
//     (carrying rank/path/epoch) on silent corruption.
//   * A file of any other version is rejected as unsupported.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmtbone::io {

inline constexpr std::uint32_t kCheckpointVersion = 3;

struct CheckpointHeader {
  std::uint64_t magic = 0x434d54424f4e4531ull;  // "CMTBONE1"
  std::uint32_t version = kCheckpointVersion;
  std::int32_t n = 0;
  std::int32_t nel = 0;
  std::int32_t nfields = 0;
  std::int64_t steps = 0;
  double time = 0.0;
  std::uint32_t payload_crc = 0;  // CRC32 (IEEE) of the raw payload
  std::int32_t rank = -1;         // writing rank (-1 when not rank-addressed)
  std::int64_t epoch = -1;        // coordinated-checkpoint epoch (-1 = none)
  // Global element count = length of the int32 owner map that prefixes the
  // field payload.
  std::int64_t total_elements = 0;
};

// The on-disk header is the in-memory struct, so it must never be
// reordered.
inline constexpr std::size_t kHeaderBytes = 64;
static_assert(sizeof(CheckpointHeader) == kHeaderBytes,
              "checkpoint header layout is part of the file format");

/// CRC32 (IEEE 802.3, reflected) over `bytes` bytes. Pass the previous
/// return value as `seed` to checksum data in chunks.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// A checkpoint whose payload CRC does not match its header: the file is
/// present and well-formed but silently corrupt. Distinct from the generic
/// runtime_error failures so recovery can fall back to a buddy copy or an
/// older epoch instead of treating the file as absent.
struct ChecksumMismatch : std::runtime_error {
  std::string path;
  int rank = -1;
  long long epoch = -1;
  ChecksumMismatch(std::string file_path, int file_rank, long long file_epoch,
                   std::uint32_t expected, std::uint32_t actual);
};

/// Serialize header + owner map + fields (each `points` doubles) to
/// version-3 bytes, filling the header's version, element count and payload
/// CRC. The resilience layer writes these bytes to disk unchanged and ships
/// the same bytes to a buddy rank. Throws std::runtime_error when the field
/// count differs from header.nfields or the owner map is shorter than
/// header.nel.
std::vector<std::byte> serialize_checkpoint(
    const CheckpointHeader& header, std::span<const double* const> fields,
    std::size_t points, std::span<const std::int32_t> owner);

/// Parse serialized checkpoint bytes; validates magic, version (3 only),
/// payload size and the payload CRC. Fills `fields` (header.nfields vectors
/// of the stored point count) and `owner` when non-null. `path` names the
/// bytes' source in messages only.
CheckpointHeader parse_checkpoint(std::span<const std::byte> bytes,
                                  const std::string& path,
                                  std::vector<std::vector<double>>* fields,
                                  std::vector<std::int32_t>* owner = nullptr);

/// Durably write `bytes` to `path` via `<path>.tmp` + fsync + atomic
/// rename. Throws std::runtime_error on I/O failure (the tmp file is
/// removed on a failed attempt).
void write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes);

/// Testing hook: make write_file_atomic fail as a full device would after
/// `bytes` payload bytes reached the tmp file (a short write / ENOSPC).
/// The contract under that failure — clear error, tmp removed, the
/// published file never touched — is what the error-path tests pin.
/// Process-wide; < 0 disables (the default).
void set_write_failure_after(long long bytes);

/// Read a whole file into memory. Throws std::runtime_error on failure.
std::vector<std::byte> read_file(const std::string& path);

}  // namespace cmtbone::io

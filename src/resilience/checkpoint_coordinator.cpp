#include "resilience/checkpoint_coordinator.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"
#include "prof/callprof.hpp"
#include "prof/timer.hpp"

namespace cmtbone::resilience {

namespace {
// User-tag space for the buddy payload exchange (< kCollectiveTagBase).
constexpr int kTagBuddySize = 0x3d00;
constexpr int kTagBuddyData = 0x3d01;
// Ring depth: the epochs kept on disk per file group (e and e-1).
constexpr std::size_t kKeepEpochs = 2;

// Filename components parsed back out of a checkpoint directory entry.
struct ParsedName {
  long long epoch = -1;
  int rank = -1;
  bool buddy = false;
};

// <prefix>.e<epoch>.r<rank>[.buddy].chk -> ParsedName; false on anything
// else (including the .tmp staging files of an in-progress atomic write).
bool parse_name(const std::string& name, const std::string& prefix,
                ParsedName* out) {
  const std::string head = prefix + ".e";
  if (name.rfind(head, 0) != 0) return false;
  std::size_t pos = head.size();
  std::size_t digits = 0;
  long long epoch = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    epoch = epoch * 10 + (name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0 || name.compare(pos, 2, ".r") != 0) return false;
  pos += 2;
  digits = 0;
  int rank = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    rank = rank * 10 + (name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0) return false;
  std::string tail = name.substr(pos);
  if (tail == ".chk") {
    *out = {epoch, rank, false};
    return true;
  }
  if (tail == ".buddy.chk") {
    *out = {epoch, rank, true};
    return true;
  }
  return false;
}

// Flip one payload byte in place: the silent-corruption fault the chaos
// policy asks for. Deliberately NOT atomic — bit rot does not rename().
void corrupt_payload_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > long(io::kHeaderBytes)) {
      const long at = long(io::kHeaderBytes) +
                      (size - long(io::kHeaderBytes)) / 2;
      unsigned char byte = 0;
      if (std::fseek(f, at, SEEK_SET) == 0 &&
          std::fread(&byte, 1, 1, f) == 1) {
        byte ^= 0xffu;
        if (std::fseek(f, at, SEEK_SET) == 0) {
          (void)std::fwrite(&byte, 1, 1, f);
        }
      }
    }
  }
  std::fclose(f);
}
}  // namespace

CheckpointCoordinator::CheckpointCoordinator(comm::Comm& comm,
                                             CheckpointOptions options)
    : comm_(&comm), opt_(std::move(options)) {
  if (opt_.directory.empty()) {
    throw std::invalid_argument(
        "CheckpointCoordinator: options.directory must be set");
  }
}

std::string CheckpointCoordinator::primary_path(const std::string& directory,
                                                const std::string& prefix,
                                                long long epoch, int rank) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ".e%06lld.r%05d.chk", epoch, rank);
  return directory + "/" + prefix + buf;
}

std::string CheckpointCoordinator::buddy_path(const std::string& directory,
                                              const std::string& prefix,
                                              long long epoch,
                                              int origin_rank) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ".e%06lld.r%05d.buddy.chk", epoch,
                origin_rank);
  return directory + "/" + prefix + buf;
}

long long CheckpointCoordinator::maybe_checkpoint(core::Driver& driver) {
  if (opt_.interval <= 0) return -1;
  if (driver.steps_taken() <= 0 || driver.steps_taken() % opt_.interval != 0) {
    return -1;
  }
  return checkpoint_now(driver);
}

long long CheckpointCoordinator::checkpoint_now(core::Driver& driver) {
  prof::ScopedRegion region("resilience.checkpoint");
  prof::WallTimer timer;

  // Epoch agreement: the epoch IS the step count, and a min/max allreduce
  // proves every rank is at the same one. Divergence here means the
  // lockstep contract is already broken, which no checkpoint should paper
  // over.
  long long lohi[2] = {driver.steps_taken(), -driver.steps_taken()};
  comm_->allreduce(std::span<long long>(lohi, 2), comm::ReduceOp::kMin);
  if (lohi[0] != -lohi[1]) {
    throw std::runtime_error(
        "checkpoint: ranks disagree on the step count (min " +
        std::to_string(lohi[0]) + ", max " + std::to_string(-lohi[1]) + ")");
  }
  const long long epoch = lohi[0];

  std::vector<std::byte> bytes = driver.serialize_checkpoint(epoch);
  const std::string primary =
      primary_path(opt_.directory, opt_.prefix, epoch, comm_->rank());
  io::write_file_atomic(primary, bytes);
  if (opt_.chaos != nullptr &&
      opt_.chaos->corrupt_checkpoint(comm_->rank(), epoch)) {
    corrupt_payload_byte(primary);
  }

  if (comm_->size() > 1) {
    // Ring replication, so a lost or corrupt primary file is restorable
    // from the replica: my bytes go to rank+1, I host rank-1's. The buddy
    // file is named by its ORIGIN rank, so restore looks for
    // "my rank's epoch-e data" under the same name on either host.
    const int p = comm_->size();
    const int right = (comm_->rank() + 1) % p;
    const int left = (comm_->rank() + p - 1) % p;
    long long my_size = (long long)bytes.size();
    long long in_size = 0;
    comm_->sendrecv<long long>({&my_size, 1}, right, kTagBuddySize,
                               {&in_size, 1}, left, kTagBuddySize);
    std::vector<std::byte> theirs(static_cast<std::size_t>(in_size));
    comm_->sendrecv<std::byte>({bytes.data(), bytes.size()}, right,
                               kTagBuddyData, {theirs.data(), theirs.size()},
                               left, kTagBuddyData);
    io::write_file_atomic(buddy_path(opt_.directory, opt_.prefix, epoch, left),
                          theirs);
  }

  // Exiting this barrier means every rank has durably published epoch e —
  // only now may anyone discard e-2. (Restore does not trust this alone:
  // it re-derives completeness by intersecting per-rank restorable sets.)
  comm_->barrier();
  last_epoch_ = epoch;
  prune();

  if (opt_.stats != nullptr && comm_->rank() == 0) {
    opt_.stats->checkpoints += 1;
    opt_.stats->checkpoint_bytes += (long long)bytes.size();
    opt_.stats->checkpoint_seconds += timer.seconds();
  }
  return epoch;
}

std::vector<long long> CheckpointCoordinator::my_restorable_epochs() const {
  namespace fs = std::filesystem;
  std::vector<long long> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt_.directory, ec)) {
    ParsedName parsed;
    if (!parse_name(entry.path().filename().string(), opt_.prefix, &parsed)) {
      continue;
    }
    if (parsed.rank != comm_->rank()) continue;
    const std::string path = entry.path().string();
    try {
      const io::CheckpointHeader h =
          io::parse_checkpoint(io::read_file(path), path, nullptr);
      // The file must also claim the (epoch, rank) its name promises.
      if (h.epoch != parsed.epoch || h.rank != parsed.rank) continue;
    } catch (const std::exception&) {
      continue;  // torn, truncated, or corrupt — not restorable from here
    }
    epochs.push_back(parsed.epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs;
}

bool CheckpointCoordinator::try_load_epoch(core::Driver& driver,
                                           long long epoch) {
  const std::string primary =
      primary_path(opt_.directory, opt_.prefix, epoch, comm_->rank());
  const std::string buddy =
      buddy_path(opt_.directory, opt_.prefix, epoch, comm_->rank());
  for (const std::string& path : {primary, buddy}) {
    try {
      driver.restore_checkpoint(io::read_file(path), path);
      return true;
    } catch (const std::exception&) {
      // CRC mismatch, missing file, truncation: fall through to the replica.
    }
  }
  return false;
}

long long CheckpointCoordinator::restore_latest(core::Driver& driver) {
  prof::ScopedRegion region("resilience.restore");

  // Globally complete = every rank can restore it. Each rank reports the
  // epochs it can vouch for (valid primary or hosted-elsewhere replica of
  // MY data, i.e. the buddy file named with my rank), the intersection is
  // the candidate set, newest first.
  std::vector<long long> mine = my_restorable_epochs();
  std::vector<long long> all =
      comm_->allgatherv<long long>({mine.data(), mine.size()});
  std::map<long long, int> votes;
  for (long long e : all) votes[e] += 1;
  std::vector<long long> candidates;
  for (const auto& [epoch, count] : votes) {
    if (count == comm_->size()) candidates.push_back(epoch);
  }
  std::sort(candidates.rbegin(), candidates.rend());

  for (long long epoch : candidates) {
    const int ok = try_load_epoch(driver, epoch) ? 1 : 0;
    // A rank can lose its copy between the scan and the load (disk fault);
    // everyone must agree before the epoch counts, else fall back together.
    if (comm_->allreduce_one<int>(ok, comm::ReduceOp::kMin) == 1) {
      last_epoch_ = epoch;
      if (opt_.stats != nullptr && comm_->rank() == 0) {
        opt_.stats->restores += 1;
      }
      return epoch;
    }
  }
  return -1;
}

void CheckpointCoordinator::prune() {
  namespace fs = std::filesystem;
  // Per (rank-in-name, buddy?) group, keep the kKeepEpochs newest epochs.
  // This rank only ever deletes files it wrote: its primaries and the
  // replicas it hosts.
  std::map<std::pair<int, bool>, std::vector<std::pair<long long, fs::path>>>
      groups;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt_.directory, ec)) {
    ParsedName parsed;
    if (!parse_name(entry.path().filename().string(), opt_.prefix, &parsed)) {
      continue;
    }
    const bool my_primary = !parsed.buddy && parsed.rank == comm_->rank();
    const bool hosted_replica =
        parsed.buddy && comm_->size() > 1 &&
        parsed.rank == (comm_->rank() + comm_->size() - 1) % comm_->size();
    if (!my_primary && !hosted_replica) continue;
    groups[{parsed.rank, parsed.buddy}].emplace_back(parsed.epoch,
                                                     entry.path());
  }
  for (auto& [key, files] : groups) {
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = kKeepEpochs; i < files.size(); ++i) {
      fs::remove(files[i].second, ec);
    }
  }
}

}  // namespace cmtbone::resilience

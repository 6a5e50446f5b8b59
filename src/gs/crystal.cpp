#include "gs/crystal.hpp"

#include <cstring>
#include "util/bytes.hpp"

namespace cmtbone::gs {

namespace {
constexpr int kTagBase = 128;  // p2p tags 128..191 (stage-indexed)

// Working set: parallel arrays of destinations and flat payload.
struct Pool {
  std::vector<int> dest;
  std::vector<std::byte> data;  // dest.size() * record_bytes
};

// Serialize a shipment as [int32 count][dests][payload].
std::vector<std::byte> pack(const Pool& ship, std::size_t record_bytes) {
  const int count = int(ship.dest.size());
  std::vector<std::byte> buf(sizeof(int) + count * sizeof(int) +
                             count * record_bytes);
  util::copy_bytes(buf.data(), &count, sizeof(int));
  util::copy_bytes(buf.data() + sizeof(int), ship.dest.data(),
                   count * sizeof(int));
  util::copy_bytes(buf.data() + sizeof(int) + count * sizeof(int),
                   ship.data.data(), count * record_bytes);
  return buf;
}

void unpack_into(const std::vector<std::byte>& buf, std::size_t record_bytes,
                 Pool* pool) {
  int count = 0;
  util::copy_bytes(&count, buf.data(), sizeof(int));
  if (count <= 0) return;
  std::size_t old = pool->dest.size();
  pool->dest.resize(old + count);
  util::copy_bytes(pool->dest.data() + old, buf.data() + sizeof(int),
                   count * sizeof(int));
  std::size_t old_bytes = pool->data.size();
  pool->data.resize(old_bytes + count * record_bytes);
  util::copy_bytes(pool->data.data() + old_bytes,
                   buf.data() + sizeof(int) + count * sizeof(int),
                   count * record_bytes);
}
}  // namespace

std::vector<std::byte> CrystalRouter::route(std::span<const std::byte> records,
                                            std::span<const int> dest,
                                            std::size_t record_bytes) {
  const int me = comm_->rank();

  Pool pool;
  pool.dest.assign(dest.begin(), dest.end());
  pool.data.assign(records.begin(), records.end());
  stages_ = 0;

  int lo = 0, hi = comm_->size();
  while (hi - lo > 1) {
    const int nl = (hi - lo + 1) / 2;  // lower-half size (>= upper)
    const int mid = lo + nl;
    const int nh = hi - mid;
    const bool lower = me < mid;
    const int stage_tag = kTagBase + stages_;
    ++stages_;

    // Partition: keep records whose destination is in my half.
    Pool keep, ship;
    for (std::size_t i = 0; i < pool.dest.size(); ++i) {
      bool dst_lower = pool.dest[i] < mid;
      Pool& side = (dst_lower == lower) ? keep : ship;
      side.dest.push_back(pool.dest[i]);
      std::size_t old = side.data.size();
      side.data.resize(old + record_bytes);
      util::copy_bytes(side.data.data() + old,
                       pool.data.data() + i * record_bytes, record_bytes);
    }

    if (lower) {
      const int l = me - lo;
      const int partner = mid + std::min(l, nh - 1);
      // Receive first when we have a partner that targets us; ordering is
      // safe either way because sends are buffered (never block).
      std::vector<std::byte> out = pack(ship, record_bytes);
      comm_->send(std::span<const std::byte>(out), partner, stage_tag);
      pool = std::move(keep);
      if (l < nh) {
        auto in = comm_->recv_vector<std::byte>(mid + l, stage_tag);
        unpack_into(in, record_bytes, &pool);
      }
      hi = mid;
    } else {
      const int u = me - mid;
      const int partner = lo + u;
      std::vector<std::byte> out = pack(ship, record_bytes);
      comm_->send(std::span<const std::byte>(out), partner, stage_tag);
      pool = std::move(keep);
      auto in = comm_->recv_vector<std::byte>(lo + u, stage_tag);
      unpack_into(in, record_bytes, &pool);
      // The odd lower rank (when nl > nh) also ships to the last upper rank.
      if (u == nh - 1 && nl > nh) {
        auto extra = comm_->recv_vector<std::byte>(lo + nl - 1, stage_tag);
        unpack_into(extra, record_bytes, &pool);
      }
      lo = mid;
    }
  }

  return std::move(pool.data);
}

}  // namespace cmtbone::gs

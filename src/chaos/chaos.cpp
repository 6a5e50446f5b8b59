#include "chaos/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cmtbone::chaos {

namespace {

// SplitMix64 finalizer: the bit mixer behind every chaos decision.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

double to_unit(std::uint64_t h) { return double(h >> 11) * 0x1.0p-53; }

// Domain-separation salts so op decisions, hold decisions, and digest
// contributions never alias.
constexpr std::uint64_t kOpSalt = 0x6f70736c61740001ull;
constexpr std::uint64_t kHoldSalt = 0x686f6c6473616c74ull;

}  // namespace

ChaosPolicy ChaosPolicy::for_seed(std::uint64_t seed, int nranks) {
  ChaosPolicy p;
  p.seed = seed;
  if (seed == 0 || nranks <= 0) return p;  // digest-only policy
  std::uint64_t h = combine(seed, 0x5eed0001ull);
  p.delay_probability = 0.05 + 0.25 * to_unit(h = combine(h, 1));
  p.max_delay_us = 20 + int(combine(h, 2) % 101);  // 20..120 us
  p.hold_probability = 0.05 + 0.35 * to_unit(h = combine(h, 3));
  p.max_hold_ticks = 2 + int(combine(h, 4) % 9);  // 2..10 ticks
  p.rank_slowdown.assign(std::size_t(nranks), 1.0);
  int straggler = int(combine(h, 5) % std::uint64_t(nranks));
  p.rank_slowdown[std::size_t(straggler)] =
      2.0 + 3.0 * to_unit(combine(h, 6));
  return p;
}

ChaosEngine::ChaosEngine(ChaosPolicy policy, int nranks)
    : policy_(std::move(policy)), ranks_(std::size_t(std::max(nranks, 1))) {
  kill_next_.store(policy_.kill_step, std::memory_order_relaxed);
}

double ChaosEngine::slowdown(int rank) const {
  if (rank < 0 || std::size_t(rank) >= policy_.rank_slowdown.size()) {
    return 1.0;
  }
  return std::max(policy_.rank_slowdown[std::size_t(rank)], 0.0);
}

void ChaosEngine::on_rank_op(int rank, Hook hook) {
  if (rank < 0 || std::size_t(rank) >= ranks_.size()) return;
  const long long op = ranks_[std::size_t(rank)].ops++;
  if (rank == policy_.abort_rank && policy_.abort_at_op >= 0 &&
      op >= policy_.abort_at_op) {
    throw ChaosAbortInjected(rank, op);
  }
  std::uint64_t h = combine(policy_.seed, kOpSalt);
  h = combine(h, std::uint64_t(rank));
  h = combine(h, std::uint64_t(hook));
  h = combine(h, std::uint64_t(op));
  note(h);
  if (policy_.delay_probability <= 0.0) return;
  if (to_unit(h) >= policy_.delay_probability) return;
  const int bound = std::max(policy_.max_delay_us, 1);
  const int us = 1 + int(combine(h, 0xde1a4ull) % std::uint64_t(bound));
  const auto dur = std::chrono::microseconds(
      (long long)(double(us) * slowdown(rank)));
  if (dur.count() > 0) std::this_thread::sleep_for(dur);
}

void ChaosEngine::on_step(int rank, long long step) {
  if (rank != policy_.kill_rank || policy_.kill_step < 0) return;
  long long next = kill_next_.load(std::memory_order_acquire);
  if (next < 0 || step < next) return;
  const long long fired = kill_fires_.load(std::memory_order_relaxed);
  const long long bound = std::max(policy_.kill_max_count, 1);
  // Re-arm at a strictly larger step (or disarm at the count bound / in
  // one-shot mode): a recovery attempt replaying steps below the new
  // target rides past its old kill point, so progress is guaranteed. The
  // CAS keeps "exactly one fire per target" even across attempts sharing
  // this engine.
  const long long rearm = (policy_.kill_period > 0 && fired + 1 < bound)
                              ? step + policy_.kill_period
                              : -1;
  if (!kill_next_.compare_exchange_strong(next, rearm,
                                          std::memory_order_acq_rel)) {
    return;
  }
  kill_fires_.fetch_add(1, std::memory_order_relaxed);
  throw ChaosAbortInjected::at_step(rank, step);
}

bool ChaosEngine::corrupt_checkpoint(int rank, long long epoch) const {
  return policy_.corrupt_rank >= 0 && rank == policy_.corrupt_rank &&
         epoch == policy_.corrupt_epoch;
}

int ChaosEngine::hold_ticks(int src, int dest, int tag, std::uint64_t seq,
                            std::size_t bytes) {
  std::uint64_t h = combine(policy_.seed, kHoldSalt);
  // Repacking the identity would move every recorded schedule digest
  // (chaos_stress --replay, bench/state_hashes).
  h = combine(h, std::uint64_t(std::uint32_t(src)));
  h = combine(h, (std::uint64_t(std::uint32_t(dest)) << 32) |
                     std::uint32_t(tag));
  h = combine(h, seq);
  h = combine(h, std::uint64_t(bytes));
  note(h);
  if (policy_.hold_probability <= 0.0) return 0;
  if (to_unit(h) >= policy_.hold_probability) return 0;
  const int bound = std::max(policy_.max_hold_ticks, 1);
  return 1 + int(combine(h, 0x71c5ull) % std::uint64_t(bound));
}

}  // namespace cmtbone::chaos

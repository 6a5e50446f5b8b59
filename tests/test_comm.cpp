// The message-passing runtime: point-to-point semantics, argument checks,
// collectives, dynamic receives, and failure behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "comm/runtime.hpp"
#include "util/rng.hpp"

namespace {

using cmtbone::comm::Comm;
using cmtbone::comm::ReduceOp;
using cmtbone::comm::Request;
using cmtbone::comm::Status;

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::vector<std::atomic<bool>> seen(8);
  cmtbone::comm::run(8, [&](Comm& world) {
    EXPECT_EQ(world.size(), 8);
    seen[world.rank()].store(true);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 8);
  for (auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, SingleRankWorks) {
  cmtbone::comm::run(1, [](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    world.barrier();
    EXPECT_EQ(world.allreduce_one(42.0, ReduceOp::kSum), 42.0);
  });
}

TEST(Runtime, RankExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      cmtbone::comm::run(4,
                         [](Comm& world) {
                           if (world.rank() == 2) {
                             throw std::runtime_error("rank 2 boom");
                           }
                           // Other ranks block on rank 2's message, which
                           // never comes; the abort must unwind them.
                           double x = 0;
                           world.recv(std::span<double>(&x, 1), 2, 9);
                         }),
      std::runtime_error);
}

TEST(Runtime, ProvableDeadlockIsDetectedNotHung) {
  // Rank 0 blocks on a collective while every other rank exits: no sender
  // can ever exist, so the runtime must unwind with DeadlockDetected
  // (classic bug: collective called inside a rank-conditional block).
  EXPECT_THROW(
      cmtbone::comm::run(4,
                         [](Comm& world) {
                           if (world.rank() == 0) {
                             double x = 1.0;
                             world.allreduce(std::span<double>(&x, 1),
                                             ReduceOp::kSum);
                           }
                         }),
      cmtbone::comm::DeadlockDetected);
}

TEST(Runtime, EarlyExitOfUninvolvedRanksIsFine) {
  // Ranks 2 and 3 exit immediately; 0 and 1 keep talking to each other.
  // The deadlock detector must NOT fire while a potential sender remains.
  cmtbone::comm::run(4, [](Comm& world) {
    if (world.rank() >= 2) return;
    const int peer = 1 - world.rank();
    for (int i = 0; i < 50; ++i) {
      int v = i;
      world.send(std::span<const int>(&v, 1), peer, 1);
      int got = -1;
      world.recv(std::span<int>(&got, 1), peer, 1);
      EXPECT_EQ(got, i);
    }
  });
}

TEST(PointToPoint, BlockingSendRecvRoundTrip) {
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::vector<double> data = {1.5, -2.5, 3.25};
      world.send(std::span<const double>(data), 1, 5);
    } else {
      std::vector<double> data(3);
      Status s = world.recv(std::span<double>(data), 0, 5);
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(s.tag, 5);
      EXPECT_EQ(s.bytes, 3 * sizeof(double));
      EXPECT_DOUBLE_EQ(data[1], -2.5);
    }
  });
}

TEST(PointToPoint, MessagesDoNotOvertake) {
  // FIFO per (source, dest): ten messages arrive in posting order.
  cmtbone::comm::run(2, [](Comm& world) {
    const int kMessages = 10;
    if (world.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        world.send(std::span<const int>(&i, 1), 1, 3);
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        int v = -1;
        world.recv(std::span<int>(&v, 1), 0, 3);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(PointToPoint, TagSelectsAmongQueuedMessages) {
  // Receive in reverse tag order: tag matching must pick the right queued
  // message, not the first arrival.
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      int a = 111, b = 222;
      world.send(std::span<const int>(&a, 1), 1, 1);
      world.send(std::span<const int>(&b, 1), 1, 2);
    } else {
      int v = 0;
      world.recv(std::span<int>(&v, 1), 0, 2);
      EXPECT_EQ(v, 222);
      world.recv(std::span<int>(&v, 1), 0, 1);
      EXPECT_EQ(v, 111);
    }
  });
}

TEST(PointToPoint, SendToSelf) {
  cmtbone::comm::run(2, [](Comm& world) {
    int v = world.rank() + 99;
    world.send(std::span<const int>(&v, 1), world.rank(), 4);
    int got = 0;
    world.recv(std::span<int>(&got, 1), world.rank(), 4);
    EXPECT_EQ(got, world.rank() + 99);
  });
}

TEST(PointToPoint, NonblockingIrecvPostedBeforeSend) {
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 1) {
      double x = 0.0;
      Request r = world.irecv(std::span<double>(&x, 1), 0, 8);
      world.barrier();  // guarantee the irecv is posted first
      Status s = world.wait(r);
      EXPECT_DOUBLE_EQ(x, 2.75);
      EXPECT_EQ(s.source, 0);
    } else {
      world.barrier();
      double x = 2.75;
      world.send(std::span<const double>(&x, 1), 1, 8);
    }
  });
}

TEST(PointToPoint, TruncationThrows) {
  EXPECT_THROW(cmtbone::comm::run(2,
                                  [](Comm& world) {
                                    if (world.rank() == 0) {
                                      std::vector<double> big(8, 1.0);
                                      world.send(std::span<const double>(big),
                                                 1, 2);
                                    } else {
                                      double small = 0;
                                      world.recv(std::span<double>(&small, 1),
                                                 0, 2);
                                    }
                                  }),
               std::runtime_error);
}

TEST(PointToPoint, ProbeAndDynamicReceive) {
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      std::vector<long long> payload = {10, 20, 30, 40, 50};
      world.send(std::span<const long long>(payload), 1, 6);
    } else {
      auto data = world.recv_vector<long long>(0, 6);
      ASSERT_EQ(data.size(), 5u);
      EXPECT_EQ(data[4], 50);
    }
  });
}

TEST(PointToPoint, SendrecvSwapsValues) {
  cmtbone::comm::run(2, [](Comm& world) {
    const int peer = 1 - world.rank();
    double mine = 10.0 + world.rank();
    double theirs = 0.0;
    Status s = world.sendrecv(std::span<const double>(&mine, 1), peer, 3,
                              std::span<double>(&theirs, 1), peer, 3);
    EXPECT_DOUBLE_EQ(theirs, 10.0 + peer);
    EXPECT_EQ(s.source, peer);
    EXPECT_EQ(s.bytes, sizeof(double));
  });
}

TEST(PointToPoint, SendrecvRingRotation) {
  // Classic ring shift: rank r sends to r+1, receives from r-1.
  cmtbone::comm::run(5, [](Comm& world) {
    const int p = world.size();
    int right = (world.rank() + 1) % p;
    int left = (world.rank() - 1 + p) % p;
    int mine = world.rank() * 7;
    int got = -1;
    world.sendrecv(std::span<const int>(&mine, 1), right, 1,
                   std::span<int>(&got, 1), left, 1);
    EXPECT_EQ(got, left * 7);
  });
}

TEST(PointToPoint, RejectsOutOfRangePeerAndTag) {
  // Every point-to-point entry point checks its peer and tag in every
  // build and throws before posting or sending anything: a bad peer must
  // not abort the process, and a tag at or above kCollectiveTagBase must
  // not reach a collective's internal messages.
  using cmtbone::comm::kCollectiveTagBase;
  cmtbone::comm::run(2, [](Comm& world) {
    const int peer = 1 - world.rank();
    const std::pair<int, int> bad[] = {{-1, 0},
                                       {world.size(), 0},
                                       {peer, -1},
                                       {peer, kCollectiveTagBase}};
    double x = 1.0;
    const std::span<const double> out(&x, 1);
    const std::span<double> in(&x, 1);
    for (const auto& [p, tag] : bad) {
      SCOPED_TRACE("peer " + std::to_string(p) + ", tag " +
                   std::to_string(tag));
      EXPECT_THROW(world.send(out, p, tag), std::invalid_argument);
      EXPECT_THROW(world.isend(out, p, tag), std::invalid_argument);
      EXPECT_THROW(world.isend_payload(std::vector<std::byte>(8), p, tag),
                   std::invalid_argument);
      EXPECT_THROW(world.irecv(in, p, tag), std::invalid_argument);
      EXPECT_THROW(world.recv(in, p, tag), std::invalid_argument);
      EXPECT_THROW(world.recv_vector<double>(p, tag), std::invalid_argument);
      // Either half of a sendrecv rejects the whole call.
      EXPECT_THROW(world.sendrecv(out, p, tag, in, peer, 0),
                   std::invalid_argument);
      EXPECT_THROW(world.sendrecv(out, peer, 0, in, p, tag),
                   std::invalid_argument);
    }
    // Nothing was posted or sent, so a tag-0 exchange still pairs up.
    double mine = 10.0 + world.rank(), theirs = 0.0;
    world.sendrecv(std::span<const double>(&mine, 1), peer, 0,
                   std::span<double>(&theirs, 1), peer, 0);
    EXPECT_EQ(theirs, 10.0 + peer);
  });
}

// --- collectives -------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, Barrier) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  cmtbone::comm::run(p, [&](Comm& world) {
    arrived.fetch_add(1);
    world.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), p);
  });
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(4, world.rank() == root ? root * 7 : -1);
      world.bcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root * 7);
    }
  });
}

TEST_P(CollectiveSizes, AllreduceSumMinMax) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    double r = world.rank();
    EXPECT_DOUBLE_EQ(world.allreduce_one(r, ReduceOp::kSum),
                     p * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(world.allreduce_one(r, ReduceOp::kMin), 0.0);
    EXPECT_DOUBLE_EQ(world.allreduce_one(r, ReduceOp::kMax), double(p - 1));
  });
}

TEST_P(CollectiveSizes, AllreduceVectorMatchesSerialReference) {
  const int p = GetParam();
  const int kLen = 17;
  // Serial reference.
  std::vector<double> expected(kLen, 0.0);
  for (int r = 0; r < p; ++r) {
    cmtbone::util::SplitMix64 rng(cmtbone::util::rank_seed(42, r));
    for (int i = 0; i < kLen; ++i) expected[i] += rng.uniform(-1, 1);
  }
  cmtbone::comm::run(p, [&](Comm& world) {
    cmtbone::util::SplitMix64 rng(cmtbone::util::rank_seed(42, world.rank()));
    std::vector<double> v(kLen);
    for (double& x : v) x = rng.uniform(-1, 1);
    world.allreduce(std::span<double>(v), ReduceOp::kSum);
    for (int i = 0; i < kLen; ++i) EXPECT_NEAR(v[i], expected[i], 1e-12);
  });
}

TEST_P(CollectiveSizes, GatherAndAllgather) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    int mine = world.rank() * world.rank();
    auto at_root = world.gather(std::span<const int>(&mine, 1), 0);
    if (world.rank() == 0) {
      ASSERT_EQ(int(at_root.size()), p);
      for (int r = 0; r < p; ++r) EXPECT_EQ(at_root[r], r * r);
    } else {
      EXPECT_TRUE(at_root.empty());
    }
    auto everywhere = world.allgather(std::span<const int>(&mine, 1));
    ASSERT_EQ(int(everywhere.size()), p);
    for (int r = 0; r < p; ++r) EXPECT_EQ(everywhere[r], r * r);
  });
}

TEST_P(CollectiveSizes, GathervVariableSizes) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    // Rank r contributes r elements (rank 0 contributes none).
    std::vector<int> mine(world.rank(), world.rank());
    std::vector<int> counts;
    auto all = world.gatherv(std::span<const int>(mine), 0, &counts);
    if (world.rank() == 0) {
      ASSERT_EQ(int(counts.size()), p);
      std::size_t pos = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(counts[r], r);
        for (int c = 0; c < r; ++c) EXPECT_EQ(all[pos++], r);
      }
      EXPECT_EQ(pos, all.size());
    }
  });
}

TEST_P(CollectiveSizes, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    // Rank r sends (r + dest) copies of value r*100+dest to each dest.
    std::vector<int> send;
    std::vector<int> counts(p);
    for (int dest = 0; dest < p; ++dest) {
      counts[dest] = world.rank() + dest;
      for (int c = 0; c < counts[dest]; ++c) {
        send.push_back(world.rank() * 100 + dest);
      }
    }
    std::vector<int> rcounts;
    auto got = world.alltoallv(std::span<const int>(send), counts, &rcounts);
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(rcounts[src], src + world.rank());
      for (int c = 0; c < rcounts[src]; ++c) {
        EXPECT_EQ(got[pos++], src * 100 + world.rank());
      }
    }
    EXPECT_EQ(pos, got.size());
  });
}

TEST_P(CollectiveSizes, ScanSum) {
  const int p = GetParam();
  cmtbone::comm::run(p, [&](Comm& world) {
    long long prefix = world.scan_sum(static_cast<long long>(world.rank() + 1));
    long long expected = 0;
    for (int r = 0; r <= world.rank(); ++r) expected += r + 1;
    EXPECT_EQ(prefix, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(EdgeCases, ZeroByteMessagesMatchNormally) {
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.send_bytes(nullptr, 0, 1, 9);
    } else {
      Status s = world.recv_bytes(nullptr, 0, 0, 9);
      EXPECT_EQ(s.bytes, 0u);
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(s.tag, 9);
    }
  });
}

TEST(EdgeCases, EmptySpanCollectives) {
  cmtbone::comm::run(3, [](Comm& world) {
    std::vector<double> empty;
    world.allreduce(std::span<double>(empty), ReduceOp::kSum);
    world.bcast(std::span<double>(empty), 0);
    auto gathered = world.allgather(std::span<const double>(empty));
    EXPECT_TRUE(gathered.empty());
  });
}

TEST(EdgeCases, StructuredTypesThroughCollectives) {
  struct Pair {
    int a;
    double b;
  };
  cmtbone::comm::run(4, [](Comm& world) {
    Pair mine{world.rank(), world.rank() * 0.5};
    auto all = world.allgather(std::span<const Pair>(&mine, 1));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[r].a, r);
      EXPECT_DOUBLE_EQ(all[r].b, r * 0.5);
    }
  });
}

TEST(PointToPoint, ProbeRacesConcurrentDeliver) {
  // Rank 0's dynamic receives probe while rank 1 is still delivering: every
  // probe must return coherent metadata (size) for a message that the
  // sized receive then gets in full. Sizes vary so a stale or torn probe
  // result shows up as a truncation or content mismatch.
  constexpr int kMsgs = 64;
  cmtbone::comm::run(2, [](Comm& world) {
    if (world.rank() == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<int> payload(1 + i % 7, i);
        world.send(std::span<const int>(payload), 0, /*tag=*/i % 3);
        if (i % 4 == 0) std::this_thread::yield();
      }
      return;
    }
    for (int n = 0; n < kMsgs; ++n) {
      std::vector<int> got = world.recv_vector<int>(1, n % 3);
      ASSERT_EQ(got.size(), 1 + std::size_t(n) % 7);
      for (int v : got) EXPECT_EQ(v, n);
    }
  });
}

TEST(PointToPoint, OverlappingTagsUnderChaos) {
  // Three senders share two tags; chaos holds and delays scramble arrival
  // order across streams. Receives that take the sources round robin must
  // still see each (source, tag) stream in order and drain exactly the
  // sent multiset.
  constexpr int kRanks = 4;
  constexpr int kMsgs = 12;
  constexpr int kTags[] = {3, 4};
  cmtbone::chaos::ChaosEngine engine(
      cmtbone::chaos::ChaosPolicy::for_seed(77, kRanks), kRanks);
  cmtbone::comm::RunOptions options;
  options.chaos = &engine;
  cmtbone::comm::run(
      kRanks,
      [&](Comm& world) {
        if (world.rank() != 0) {
          for (int i = 0; i < kMsgs; ++i) {
            for (int tag : kTags) {
              long long v = world.rank() * 10000 + tag * 100 + i;
              world.send(std::span<const long long>(&v, 1), 0, tag);
            }
          }
          return;
        }
        for (int tag : kTags) {
          int next[kRanks] = {0, 0, 0, 0};
          for (int n = 0; n < (kRanks - 1) * kMsgs; ++n) {
            const int src = 1 + n % (kRanks - 1);
            long long v = -1;
            Status s = world.recv(std::span<long long>(&v, 1), src, tag);
            ASSERT_EQ(s.source, src);
            EXPECT_EQ(v, src * 10000 + tag * 100 + next[src]);
            ++next[src];
          }
          for (int src = 1; src < kRanks; ++src) EXPECT_EQ(next[src], kMsgs);
        }
      },
      options);
  EXPECT_NE(engine.digest(), 0u);
}

}  // namespace

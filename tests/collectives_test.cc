#include "dist/communicator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "dist/comm_thread.h"
#include "dist/replica.h"
#include "tensor/rng.h"

namespace podnet::dist {
namespace {

std::vector<std::vector<float>> make_inputs(int ranks, std::size_t n) {
  std::vector<std::vector<float>> data(static_cast<std::size_t>(ranks));
  tensor::Rng rng(static_cast<std::uint64_t>(ranks * 1000 + n));
  for (auto& v : data) {
    v.resize(n);
    for (auto& x : v) x = rng.normal();
  }
  return data;
}

std::vector<float> expected_sum(const std::vector<std::vector<float>>& in) {
  std::vector<float> out(in[0].size(), 0.f);
  // Double accumulation: reference is more accurate than any algorithm.
  for (std::size_t i = 0; i < out.size(); ++i) {
    double s = 0;
    for (const auto& v : in) s += v[i];
    out[i] = static_cast<float>(s);
  }
  return out;
}

struct AllReduceCase {
  int ranks;
  std::size_t n;
  AllReduceAlgorithm alg;
};

class AllReduceTest : public ::testing::TestWithParam<AllReduceCase> {};

TEST_P(AllReduceTest, SumsAcrossRanksOnEveryRank) {
  const auto& tc = GetParam();
  auto data = make_inputs(tc.ranks, tc.n);
  const auto expected = expected_sum(data);
  Communicator comm(tc.ranks);
  run_replicas(tc.ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)], tc.alg);
  });
  for (int r = 0; r < tc.ranks; ++r) {
    for (std::size_t i = 0; i < tc.n; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i],
                  1e-4f * (1.f + std::abs(expected[i])))
          << "rank " << r << " elem " << i << " alg " << to_string(tc.alg);
    }
  }
}

std::vector<AllReduceCase> all_cases() {
  std::vector<AllReduceCase> cases;
  for (AllReduceAlgorithm alg :
       {AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
        AllReduceAlgorithm::kHalvingDoubling, AllReduceAlgorithm::kTwoLevel,
        AllReduceAlgorithm::kTwoLevelRing}) {
    for (int ranks : {1, 2, 3, 4, 5, 8}) {
      // 0, 1, and ranks-1 are the degenerate shapes: empty payload, a
      // single element every chunking scheme must route somewhere, and a
      // vector one short of the rank count (some chunks empty on every
      // algorithm). 7/64/1000 are the generic small/medium sizes.
      for (std::size_t n :
           {std::size_t{0}, std::size_t{1},
            static_cast<std::size_t>(ranks - 1), std::size_t{7},
            std::size_t{64}, std::size_t{1000}}) {
        cases.push_back({ranks, n, alg});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsRanksSizes, AllReduceTest,
                         ::testing::ValuesIn(all_cases()));

class BitIdenticalTest
    : public ::testing::TestWithParam<std::tuple<int, AllReduceAlgorithm>> {};

TEST_P(BitIdenticalTest, AllRanksReceiveSameBits) {
  // The invariant data-parallel training relies on: every rank gets the
  // *identical* float result, so replica weights never drift.
  const auto [ranks, alg] = GetParam();
  auto data = make_inputs(ranks, 333);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)], alg);
  });
  for (int r = 1; r < ranks; ++r) {
    for (std::size_t i = 0; i < 333; ++i) {
      ASSERT_EQ(data[0][i], data[static_cast<std::size_t>(r)][i])
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndAlgorithms, BitIdenticalTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(AllReduceAlgorithm::kFlat,
                                         AllReduceAlgorithm::kRing,
                                         AllReduceAlgorithm::kHalvingDoubling,
                                         AllReduceAlgorithm::kTwoLevel,
                                         AllReduceAlgorithm::kTwoLevelRing)));

TEST(AllReduceTest, SizeSmallerThanRanks) {
  // Vector shorter than the rank count: some ring chunks are empty.
  const int ranks = 8;
  auto data = make_inputs(ranks, 3);
  const auto expected = expected_sum(data);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)],
                       AllReduceAlgorithm::kRing);
  });
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(data[5][i], expected[i], 1e-5f);
  }
}

TEST(BroadcastTest, CopiesRootToAll) {
  const int ranks = 4;
  std::vector<std::vector<float>> data(ranks, std::vector<float>(16, -1.f));
  for (std::size_t i = 0; i < 16; ++i) data[2][i] = static_cast<float>(i);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.broadcast(r, /*root=*/2, data[static_cast<std::size_t>(r)]);
  });
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(data[static_cast<std::size_t>(r)][i], static_cast<float>(i));
    }
  }
}

TEST(AllGatherTest, ConcatenatesInRankOrder) {
  const int ranks = 3;
  std::vector<std::vector<float>> in(ranks, std::vector<float>(2));
  std::vector<std::vector<float>> out(ranks, std::vector<float>(6));
  for (int r = 0; r < ranks; ++r) {
    in[static_cast<std::size_t>(r)] = {static_cast<float>(10 * r),
                                       static_cast<float>(10 * r + 1)};
  }
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.allgather(r, in[static_cast<std::size_t>(r)],
                   out[static_cast<std::size_t>(r)]);
  });
  const std::vector<float> expected = {0, 1, 10, 11, 20, 21};
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(out[static_cast<std::size_t>(r)], expected);
  }
}

TEST(ScalarTest, SumAndMax) {
  const int ranks = 5;
  std::vector<double> sums(ranks), maxs(ranks);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    sums[static_cast<std::size_t>(r)] = comm.allreduce_scalar(r, r + 1.0);
    maxs[static_cast<std::size_t>(r)] =
        comm.allreduce_max(r, r == 3 ? 100.0 : static_cast<double>(r));
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], 15.0);
    EXPECT_DOUBLE_EQ(maxs[static_cast<std::size_t>(r)], 100.0);
  }
}

TEST(ScalarTest, MinMaxSingleRound) {
  const int ranks = 5;
  std::vector<std::pair<double, double>> mm(ranks);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    mm[static_cast<std::size_t>(r)] =
        comm.allreduce_minmax(r, r == 2 ? -7.5 : static_cast<double>(r));
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_DOUBLE_EQ(mm[static_cast<std::size_t>(r)].first, -7.5);
    EXPECT_DOUBLE_EQ(mm[static_cast<std::size_t>(r)].second, 4.0);
  }
  // One scalar round per call, not the two an allreduce_max pair would pay.
  EXPECT_EQ(comm.stats(0).scalar.calls, 1u);
}

TEST(ScalarTest, MinMaxSingleRank) {
  Communicator comm(1);
  const auto [lo, hi] = comm.allreduce_minmax(0, 3.25);
  EXPECT_DOUBLE_EQ(lo, 3.25);
  EXPECT_DOUBLE_EQ(hi, 3.25);
}

TEST(CommunicatorTest, RepeatedCollectivesDoNotInterfere) {
  const int ranks = 4;
  Communicator comm(ranks);
  std::atomic<int> failures{0};
  run_replicas(ranks, [&](int r) {
    for (int round = 0; round < 50; ++round) {
      std::vector<float> v(17, static_cast<float>(r + round));
      comm.allreduce_sum(r, v, round % 2 == 0 ? AllReduceAlgorithm::kRing
                                              : AllReduceAlgorithm::kFlat);
      const float expected = static_cast<float>(6 + 4 * round);  // 0+1+2+3
      for (float x : v) {
        if (std::abs(x - expected) > 1e-4f) failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(CommunicatorTest, SingleRankIsNoop) {
  Communicator comm(1);
  std::vector<float> v = {1.f, 2.f};
  comm.allreduce_sum(0, v, AllReduceAlgorithm::kRing);
  EXPECT_EQ(v[0], 1.f);
  EXPECT_DOUBLE_EQ(comm.allreduce_scalar(0, 5.0), 5.0);
}

class BucketReducerTest
    : public ::testing::TestWithParam<AllReduceAlgorithm> {};

TEST_P(BucketReducerTest, OverlappedMatchesSerialBitwise) {
  // The overlap contract: handing the buckets to the comm thread must
  // produce exactly the floats the blocking per-bucket path produces —
  // same partition, same algorithm, same bits. Bucket shapes are chosen
  // adversarially: a large one, a single element, an empty one, and the
  // uneven remainder.
  const AllReduceAlgorithm alg = GetParam();
  const int ranks = 4;
  const std::size_t n = 1000;
  const std::size_t bounds[] = {0, 640, 641, 641, 1000};  // [641,641) empty
  auto serial = make_inputs(ranks, n);
  auto overlapped = serial;

  {
    Communicator comm(ranks);
    run_replicas(ranks, [&](int r) {
      auto& mine = serial[static_cast<std::size_t>(r)];
      for (std::size_t b = 0; b + 1 < std::size(bounds); ++b) {
        comm.allreduce_sum(r,
                           std::span<float>(mine.data() + bounds[b],
                                            bounds[b + 1] - bounds[b]),
                           alg);
      }
    });
  }
  {
    Communicator comm(ranks);
    run_replicas(ranks, [&](int r) {
      BucketReducer reducer(&comm, r, alg);
      auto& mine = overlapped[static_cast<std::size_t>(r)];
      for (std::size_t b = 0; b + 1 < std::size(bounds); ++b) {
        reducer.submit(static_cast<std::int64_t>(b),
                       std::span<float>(mine.data() + bounds[b],
                                        bounds[b + 1] - bounds[b]));
      }
      const DrainStats drained = reducer.wait_all();
      EXPECT_EQ(drained.buckets, std::size(bounds) - 1);
    });
  }
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(std::memcmp(serial[static_cast<std::size_t>(r)].data(),
                          overlapped[static_cast<std::size_t>(r)].data(),
                          n * sizeof(float)),
              0)
        << "rank " << r << " alg " << to_string(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, BucketReducerTest,
    ::testing::Values(AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
                      AllReduceAlgorithm::kHalvingDoubling,
                      AllReduceAlgorithm::kTwoLevel,
                      AllReduceAlgorithm::kTwoLevelRing));

TEST(BucketReducerTest, BucketChannelIsIndependentOfMainChannel) {
  // A main-channel collective issued while the comm thread is mid-bucket
  // must pair with the other ranks' main-channel calls, never with a
  // bucket rendezvous — the two streams have separate barriers.
  const int ranks = 4;
  auto data = make_inputs(ranks, 512);
  const auto expected = expected_sum(data);
  std::vector<double> scalars(static_cast<std::size_t>(ranks), 0.0);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    BucketReducer reducer(&comm, r, AllReduceAlgorithm::kRing);
    auto& mine = data[static_cast<std::size_t>(r)];
    reducer.submit(0, std::span<float>(mine.data(), 256));
    // While that bucket is (potentially) in flight, use the main channel.
    scalars[static_cast<std::size_t>(r)] = comm.allreduce_scalar(r, r + 1.0);
    reducer.submit(1, std::span<float>(mine.data() + 256, 256));
    reducer.wait_all();
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_DOUBLE_EQ(scalars[static_cast<std::size_t>(r)], 10.0);
    for (std::size_t i = 0; i < 512; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i],
                  1e-4f * (1.f + std::abs(expected[i])));
    }
  }
}

TEST(BucketReducerTest, IdleDestructionLeavesWorldHealthy) {
  // A reducer destroyed with nothing queued and nothing in flight must not
  // abort the communicator: later collectives still work.
  const int ranks = 2;
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    { BucketReducer reducer(&comm, r, AllReduceAlgorithm::kRing); }
    std::vector<float> v(8, static_cast<float>(r + 1));
    comm.allreduce_sum(r, v, AllReduceAlgorithm::kRing);
    for (float x : v) EXPECT_FLOAT_EQ(x, 3.f);
  });
}

TEST(TwoLevelRingTest, DegeneratesToPlainRingOnPrimeRanks) {
  // gs == 1 (no divisor of 7 below sqrt): phase A/C are no-ops and phase B
  // is the whole reduction; the result must still be the full sum.
  const int ranks = 7;
  auto data = make_inputs(ranks, 129);
  const auto expected = expected_sum(data);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)],
                       AllReduceAlgorithm::kTwoLevelRing);
  });
  for (std::size_t i = 0; i < 129; ++i) {
    EXPECT_NEAR(data[3][i], expected[i], 1e-4f * (1.f + std::abs(expected[i])));
  }
}

TEST(HalvingDoublingTest, NonPowerOfTwoFallsBackToRing) {
  const int ranks = 6;
  auto data = make_inputs(ranks, 64);
  const auto expected = expected_sum(data);
  Communicator comm(ranks);
  run_replicas(ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)],
                       AllReduceAlgorithm::kHalvingDoubling);
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(data[0][i], expected[i], 1e-4f);
  }
}

// The serial reference of kFlat on both of its paths: 0.f + x0 + x1 + ...
// per element, in rank order.
std::vector<float> serial_flat_sum(const std::vector<std::vector<float>>& in) {
  std::vector<float> out(in[0].size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    float acc = 0.f;
    for (const auto& v : in) acc += v[i];
    out[i] = acc;
  }
  return out;
}

TEST(FlatAllReduceTest, BothPathsEqualTheSerialSumBitwise) {
  // kOneShotMaxFloats is the cut-off between the one-rendezvous slot path
  // and the chunked scratch path; sizes straddle it on both channels.
  constexpr std::size_t K = Communicator::kOneShotMaxFloats;
  for (int ranks : {1, 2, 3, 4, 8}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{129}, K,
                          K + 1, 4 * K}) {
      for (bool bucket_channel : {false, true}) {
        auto data = make_inputs(ranks, n);
        const auto expected = serial_flat_sum(data);
        Communicator comm(ranks);
        run_replicas(ranks, [&](int r) {
          std::span<float> mine = data[static_cast<std::size_t>(r)];
          if (bucket_channel) {
            comm.allreduce_sum_bucket(r, mine, AllReduceAlgorithm::kFlat, 0);
          } else {
            comm.allreduce_sum(r, mine, AllReduceAlgorithm::kFlat);
          }
        });
        for (int r = 0; r < ranks && n > 0; ++r) {
          EXPECT_EQ(std::memcmp(data[static_cast<std::size_t>(r)].data(),
                                expected.data(), n * sizeof(float)),
                    0)
              << "ranks " << ranks << " n " << n << " rank " << r
              << (bucket_channel ? " bucket" : " main") << " channel";
        }
      }
    }
  }
}

// Deterministic per-(call, rank, element) payload; three decimals, so sums
// round and a wrong addition order or a stale slot changes the bits.
float stress_value(int call, int rank, std::size_t i) {
  const std::size_t h = static_cast<std::size_t>(call) * 7919u +
                        static_cast<std::size_t>(rank) * 104729u + i * 613u;
  return static_cast<float>(h % 20011u) * 1e-3f - 10.f;
}

TEST(FlatAllReduceTest, BackToBackMixedCollectivesUnderRandomDelays) {
  // One-shot calls have no trailing rendezvous: a fast rank may publish
  // call k+1 while a slow rank still reads call k's slots. The slot sets
  // alternate by call parity so that write never lands in the set being
  // read; with a single set this test reads stale or future payloads.
  constexpr std::size_t K = Communicator::kOneShotMaxFloats;
  constexpr int kRanks = 4;
  constexpr int kCalls = 300;
  enum Op { kSmallFlat, kLargeFlat, kScalar, kMinMax, kBroadcast, kNumOps };
  std::vector<int> ops(kCalls);
  tensor::Rng op_rng(17);
  for (int& op : ops) op = static_cast<int>(op_rng.next_below(kNumOps));

  Communicator comm(kRanks);
  std::atomic<int> failures{0};
  run_replicas(kRanks, [&](int rank) {
    tensor::Rng delay_rng(1000 + static_cast<std::uint64_t>(rank));
    for (int call = 0; call < kCalls; ++call) {
      const std::uint64_t pause = delay_rng.next_below(4);
      if (pause == 1) std::this_thread::yield();
      if (pause == 2) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(delay_rng.next_below(200)));
      }
      switch (ops[static_cast<std::size_t>(call)]) {
        case kSmallFlat:
        case kLargeFlat: {
          const std::size_t n =
              ops[static_cast<std::size_t>(call)] == kSmallFlat
                  ? 1 + static_cast<std::size_t>(call) % K
                  : K + 1 + static_cast<std::size_t>(call) % (2 * K);
          std::vector<float> v(n);
          for (std::size_t i = 0; i < n; ++i) {
            v[i] = stress_value(call, rank, i);
          }
          comm.allreduce_sum(rank, v, AllReduceAlgorithm::kFlat);
          for (std::size_t i = 0; i < n; ++i) {
            float want = 0.f;
            for (int r = 0; r < kRanks; ++r) want += stress_value(call, r, i);
            if (std::memcmp(&v[i], &want, sizeof want) != 0) {
              failures.fetch_add(1);
              break;
            }
          }
          break;
        }
        case kScalar: {
          const double got = comm.allreduce_scalar(
              rank, static_cast<double>(stress_value(call, rank, 0)));
          double want = 0.0;
          for (int r = 0; r < kRanks; ++r) want += stress_value(call, r, 0);
          if (got != want) failures.fetch_add(1);
          break;
        }
        case kMinMax: {
          const auto [lo, hi] = comm.allreduce_minmax(
              rank, static_cast<double>(stress_value(call, rank, 0)));
          double want_lo = stress_value(call, 0, 0);
          double want_hi = want_lo;
          for (int r = 1; r < kRanks; ++r) {
            want_lo = std::min<double>(want_lo, stress_value(call, r, 0));
            want_hi = std::max<double>(want_hi, stress_value(call, r, 0));
          }
          if (lo != want_lo || hi != want_hi) failures.fetch_add(1);
          break;
        }
        case kBroadcast: {
          const int root = call % kRanks;
          std::vector<float> v(64);
          for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = stress_value(call, rank, i);
          }
          comm.broadcast(rank, root, v);
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i] != stress_value(call, root, i)) {
              failures.fetch_add(1);
              break;
            }
          }
          break;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace podnet::dist

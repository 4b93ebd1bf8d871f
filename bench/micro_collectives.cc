// Microbenchmarks (E8): the shared-memory all-reduce algorithms across
// replica counts and message sizes — the functional counterpart of the
// alpha-beta models in src/tpu (which price the same algorithms on pod
// interconnect instead of on host threads).
//
// Two modes share one binary:
//   (default)   google-benchmark over the collective algorithms, timed on
//               persistent replica threads (time_on_replicas);
//   --smoke     overlapped-vs-serial gate for the `perf_smoke` ctest
//               label: reduces the same bucketed gradient payload once
//               serially (blocking allreduce_sum per bucket) and once
//               through dist::BucketReducer (comm thread on the bucket
//               channel, submissions interleaved with fake backward
//               compute), and fails if the two results are not bitwise
//               identical for every algorithm x rank-count combination,
//               on a payload whose kFlat buckets take the chunked path and
//               on one whose buckets take the one-rendezvous path.
//               Wall times are printed for eyeballing the overlap win but
//               are not gated — CI timer jitter would make that flaky.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "dist/comm_thread.h"
#include "dist/communicator.h"
#include "dist/replica.h"

namespace {

using namespace podnet::dist;

// Times one collective on `ranks` persistent replica threads. The ranks
// start once per benchmark run, meet at a barrier, run the run's
// iterations back to back and meet again; rank 0's clock between the two
// barriers is the run's time. Starting threads inside the timed loop would
// measure thread start-up, not the collective, at small sizes.
template <typename Op>
void time_on_replicas(benchmark::State& state, Communicator& comm,
                      int ranks, Op op) {
  using clock = std::chrono::steady_clock;
  const benchmark::IterationCount iters = state.max_iterations;
  double seconds = 0;
  run_replicas(ranks, [&](int r) {
    comm.barrier(r, "bench_start");
    const auto t0 = clock::now();
    for (benchmark::IterationCount i = 0; i < iters; ++i) op(r);
    comm.barrier(r, "bench_stop");
    if (r == 0) {
      seconds = std::chrono::duration<double>(clock::now() - t0).count();
    }
  });
  for (auto _ : state) {
    state.SetIterationTime(seconds / static_cast<double>(iters));
  }
}

void run_allreduce(benchmark::State& state, AllReduceAlgorithm alg) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<float>> data(static_cast<std::size_t>(ranks),
                                       std::vector<float>(elems, 1.f));
  Communicator comm(ranks);
  time_on_replicas(state, comm, ranks, [&](int r) {
    comm.allreduce_sum(r, data[static_cast<std::size_t>(r)], alg);
  });
  benchmark::DoNotOptimize(data[0][0]);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elems) * ranks * 4);
}

void BM_AllReduceFlat(benchmark::State& state) {
  run_allreduce(state, AllReduceAlgorithm::kFlat);
}
void BM_AllReduceRing(benchmark::State& state) {
  run_allreduce(state, AllReduceAlgorithm::kRing);
}
void BM_AllReduceHalvingDoubling(benchmark::State& state) {
  run_allreduce(state, AllReduceAlgorithm::kHalvingDoubling);
}
void BM_AllReduceTwoLevelRing(benchmark::State& state) {
  run_allreduce(state, AllReduceAlgorithm::kTwoLevelRing);
}

void collective_args(benchmark::internal::Benchmark* b) {
  for (int ranks : {2, 4}) {
    for (int elems : {1 << 10, 1 << 16, 1 << 20}) {
      b->Args({ranks, elems});
    }
  }
}

BENCHMARK(BM_AllReduceFlat)->Apply(collective_args)->UseManualTime();
// BN-statistics size: mean and variance of 64 channels plus a count, the
// largest distributed-BN payload of efficientnet-pico.
BENCHMARK(BM_AllReduceFlat)->Args({2, 129})->Args({4, 129})->UseManualTime();
BENCHMARK(BM_AllReduceRing)->Apply(collective_args)->UseManualTime();
BENCHMARK(BM_AllReduceHalvingDoubling)
    ->Apply(collective_args)
    ->UseManualTime();
BENCHMARK(BM_AllReduceTwoLevelRing)
    ->Apply(collective_args)
    ->UseManualTime();

void BM_Broadcast(benchmark::State& state) {
  const int ranks = 4;
  const std::size_t elems = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<float>> data(ranks, std::vector<float>(elems, 1.f));
  Communicator comm(ranks);
  time_on_replicas(state, comm, ranks, [&](int r) {
    comm.broadcast(r, 0, data[static_cast<std::size_t>(r)]);
  });
}
BENCHMARK(BM_Broadcast)->Arg(1 << 16)->UseManualTime();

void BM_ScalarAllReduce(benchmark::State& state) {
  const int ranks = 4;
  Communicator comm(ranks);
  time_on_replicas(state, comm, ranks, [&](int r) {
    benchmark::DoNotOptimize(comm.allreduce_scalar(r, 1.0));
  });
}
BENCHMARK(BM_ScalarAllReduce)->UseManualTime();

void BM_ScalarMinMax(benchmark::State& state) {
  const int ranks = 4;
  Communicator comm(ranks);
  time_on_replicas(state, comm, ranks, [&](int r) {
    benchmark::DoNotOptimize(comm.allreduce_minmax(r, static_cast<double>(r)));
  });
}
BENCHMARK(BM_ScalarMinMax)->UseManualTime();

// ---- --smoke: overlapped == serial, bitwise ------------------------------

// Deterministic non-uniform payload; rank-dependent so the reduction
// actually mixes distinct contributions.
float payload(int rank, std::size_t i) {
  return 0.001f *
         static_cast<float>(((i * 2654435761u) + 97u *
                             static_cast<unsigned>(rank)) % 4001u) -
         2.f;
}

// Bucket boundaries for `elems` split into `buckets` spans (remainder in
// the last bucket — uneven on purpose).
std::vector<std::pair<std::size_t, std::size_t>> bucket_ranges(
    std::size_t elems, std::size_t buckets) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t per = elems / buckets;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * per;
    const std::size_t end = (b + 1 == buckets) ? elems : begin + per;
    out.emplace_back(begin, end);
  }
  return out;
}

// A stand-in for one layer's backward pass between bucket completions.
double fake_backward_chunk(std::vector<float>& scratch) {
  double acc = 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    scratch[i] = scratch[i] * 0.999f + 0.001f;
    acc += scratch[i];
  }
  return acc;
}

// One payload whose buckets take kFlat's chunked path and one whose
// buckets (129 floats, a BN-statistics size) take its one-rendezvous path.
int run_overlap_smoke(std::size_t elems) {
  using clock = std::chrono::steady_clock;
  constexpr std::size_t kBuckets = 8;
  const auto ranges = bucket_ranges(elems, kBuckets);

  std::printf("%-18s %6s %8s   %12s %12s   %s\n", "algorithm", "ranks",
              "elems", "serial ms", "overlap ms", "bitwise");
  int failures = 0;
  for (AllReduceAlgorithm alg :
       {AllReduceAlgorithm::kFlat, AllReduceAlgorithm::kRing,
        AllReduceAlgorithm::kHalvingDoubling, AllReduceAlgorithm::kTwoLevel,
        AllReduceAlgorithm::kTwoLevelRing}) {
    for (int ranks : {2, 4, 8}) {
      const std::size_t r_count = static_cast<std::size_t>(ranks);
      std::vector<std::vector<float>> serial(r_count);
      std::vector<std::vector<float>> overlapped(r_count);
      for (std::size_t r = 0; r < r_count; ++r) {
        serial[r].resize(elems);
        for (std::size_t i = 0; i < elems; ++i) {
          serial[r][i] = payload(static_cast<int>(r), i);
        }
        overlapped[r] = serial[r];
      }

      // Serial reference: fake backward first, then every bucket reduced
      // with a blocking allreduce_sum — the trainer's overlap=off shape.
      double serial_ms = 0;
      {
        Communicator comm(ranks);
        const auto t0 = clock::now();
        run_replicas(ranks, [&](int r) {
          std::vector<float> scratch(elems / kBuckets, 0.5f);
          for (std::size_t b = 0; b < kBuckets; ++b) {
            benchmark::DoNotOptimize(fake_backward_chunk(scratch));
          }
          auto& mine = serial[static_cast<std::size_t>(r)];
          for (const auto& [begin, end] : ranges) {
            comm.allreduce_sum(
                r, std::span<float>(mine.data() + begin, end - begin), alg);
          }
        });
        serial_ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                              t0)
                        .count();
      }

      // Overlapped: each bucket is submitted to the comm thread as soon as
      // its share of fake backward finishes.
      double overlap_ms = 0;
      {
        Communicator comm(ranks);
        const auto t0 = clock::now();
        run_replicas(ranks, [&](int r) {
          BucketReducer reducer(&comm, r, alg);
          std::vector<float> scratch(elems / kBuckets, 0.5f);
          auto& mine = overlapped[static_cast<std::size_t>(r)];
          for (std::size_t b = 0; b < kBuckets; ++b) {
            benchmark::DoNotOptimize(fake_backward_chunk(scratch));
            const auto [begin, end] = ranges[b];
            reducer.submit(static_cast<std::int64_t>(b),
                           std::span<float>(mine.data() + begin,
                                            end - begin));
          }
          reducer.wait_all();
        });
        overlap_ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                               t0)
                         .count();
      }

      const bool identical =
          std::memcmp(serial[0].data(), overlapped[0].data(),
                      elems * sizeof(float)) == 0;
      std::printf("%-18s %6d %8zu   %12.3f %12.3f   %s\n",
                  to_string(alg).c_str(), ranks, elems, serial_ms,
                  overlap_ms, identical ? "OK" : "MISMATCH");
      if (!identical) ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      static_assert(129 <= Communicator::kOneShotMaxFloats &&
                    (std::size_t{1} << 13) > Communicator::kOneShotMaxFloats);
      const int failures =
          run_overlap_smoke(std::size_t{1} << 16) + run_overlap_smoke(8 * 129);
      if (failures == 0) {
        std::printf("collectives_overlap_smoke OK: overlapped bucket "
                    "reduction bitwise-identical to serial on all "
                    "combinations\n");
      } else {
        std::printf("collectives_overlap_smoke FAIL: %d combination(s) "
                    "diverged\n", failures);
      }
      return failures == 0 ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#include "dist/communicator.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "dist/fault.h"
#include "dist/watchdog.h"
#include "obs/timer.h"
#include "tensor/ops.h"

namespace podnet::dist {
namespace {

// y[i] += x[i] over a [begin, end) slice, through the vectorized kernel.
// Per-element arithmetic is identical to the scalar loop it replaced, so
// the bit-identical-across-ranks invariant of the algorithms is untouched.
void accumulate_range(const float* x, float* y, std::size_t begin,
                      std::size_t end) {
  if (end <= begin) return;
  tensor::add_inplace({x + begin, end - begin}, {y + begin, end - begin});
}

// Copies x[begin, end) into y[begin, end); empty and zero-size-buffer safe
// (std::copy over a null base pointer with begin == end is avoided, which
// matters for the degenerate buckets bucketing produces).
void copy_range(const float* x, float* y, std::size_t begin, std::size_t end) {
  if (end <= begin) return;
  std::copy(x + begin, x + end, y + begin);
}

// Chunk c of an n-element vector split across r chunks (remainder spread
// over the leading chunks). Yields empty chunks for the trailing ranks
// when n < r — callers must tolerate begin == end (accumulate_range and
// copy_range both do), because bucketed gradients routinely produce tail
// buckets smaller than the world size.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, int ranks,
                                                int c) {
  const std::size_t begin = n * static_cast<std::size_t>(c) / ranks;
  const std::size_t end = n * (static_cast<std::size_t>(c) + 1) / ranks;
  return {begin, end};
}

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

// Largest divisor of R that is <= sqrt(R): the group size both hierarchical
// schemes use, so their two levels are as square as R allows.
int group_size_for(int R) {
  int gs = 1;
  while (gs * gs <= R) ++gs;
  --gs;
  while (R % gs != 0) --gs;
  return gs;
}

}  // namespace

std::string to_string(AllReduceAlgorithm alg) {
  switch (alg) {
    case AllReduceAlgorithm::kFlat:
      return "flat";
    case AllReduceAlgorithm::kRing:
      return "ring";
    case AllReduceAlgorithm::kHalvingDoubling:
      return "halving_doubling";
    case AllReduceAlgorithm::kTwoLevel:
      return "two_level";
    case AllReduceAlgorithm::kTwoLevelRing:
      return "two_level_ring";
  }
  return "unknown";
}

Communicator::Communicator(int num_ranks, CommOptions options)
    : num_ranks_(num_ranks),
      options_(std::move(options)),
      main_(num_ranks, this),
      bucket_(num_ranks, this),
      stats_(static_cast<std::size_t>(num_ranks)) {
  assert(num_ranks >= 1);
  if (!options_.global_ranks.empty() &&
      options_.global_ranks.size() != static_cast<std::size_t>(num_ranks)) {
    throw std::invalid_argument(
        "CommOptions::global_ranks must have one entry per local rank");
  }
  if (options_.deadline.enabled() && options_.health == nullptr) {
    // Private board sized to cover every original rank id this world names.
    int board_size = num_ranks_;
    for (int g : options_.global_ranks) board_size = std::max(board_size, g + 1);
    options_.health = std::make_shared<HealthBoard>(board_size);
  }
#ifdef PODNET_CHECK
  main_.verifier.init(num_ranks);
  bucket_.verifier.init(num_ranks);
#endif
}

#ifdef PODNET_CHECK
void Communicator::verify_collective(Channel& ch, int rank,
                                     check::CollectiveOp op,
                                     std::uint64_t count,
                                     check::CollectiveDtype dtype,
                                     std::int32_t detail, std::int64_t bucket,
                                     const char* tag) {
  check::CollectiveFingerprint fp;
  fp.op = op;
  fp.count = count;
  fp.dtype = dtype;
  fp.detail = detail;
  fp.bucket = bucket;
  fp.tag = tag != nullptr ? tag : check::to_string(op);
  fp.world_gen = options_.generation;
  const std::string diff =
      ch.verifier.exchange(rank, fp, [this, &ch, rank] { sync(ch, rank); });
  if (!diff.empty()) {
    // Every rank computed the same diff from the same slots, so every rank
    // throws — the failure is collective. abort() additionally poisons the
    // communicator for any code that would retry a collective after
    // catching the mismatch.
    abort();
    throw check::CollectiveMismatch(diff);
  }
}
#define PODNET_VERIFY_COLLECTIVE(ch, rank, op, count, dtype, detail, bucket, \
                                 tag)                                        \
  do {                                                                       \
    if (num_ranks_ > 1) {                                                    \
      verify_collective((ch), (rank), (op), (count), (dtype), (detail),      \
                        (bucket), (tag));                                    \
    }                                                                        \
  } while (false)
#else
#define PODNET_VERIFY_COLLECTIVE(ch, rank, op, count, dtype, detail, bucket, \
                                 tag)                                        \
  do {                                                                       \
    (void)(detail);                                                          \
    (void)(bucket);                                                          \
    (void)(tag);                                                             \
  } while (false)
#endif

void Communicator::AbortableBarrier::arrive_and_wait(int rank) {
  check::UniqueLock lock(mu_);
  if (aborted_) throw_aborted();
  arrived_[static_cast<std::size_t>(rank)] = 1;
  owner_->heartbeat(rank);
  const std::uint64_t gen = generation_;
  if (++waiting_ == n_) {
    waiting_ = 0;
    ++generation_;
    std::fill(arrived_.begin(), arrived_.end(), 0);
    cv_.notify_all();
    return;
  }
  Watchdog wd(&owner_->options_.deadline, owner_->health());
  const WaitStatus status = deadline_wait(
      cv_, lock, owner_->options_.deadline,
      [&] { return generation_ != gen || aborted_; },
      [&](int /*attempt*/) {
        if (!wd.enabled()) return true;  // slice only bounds the recheck
        std::vector<int> missing;
        for (int r = 0; r < n_; ++r) {
          if (!arrived_[static_cast<std::size_t>(r)]) {
            missing.push_back(owner_->global_rank(r));
          }
        }
        const std::vector<int> declared = wd.slice_expired(missing);
        if (declared.empty()) return true;
        HealthBoard* board = owner_->health();
        for (int g : declared) board->mark_dead(g);
        // Publish the board's full sticky dead set (another communicator
        // sharing the board may have declared more) and poison the barrier
        // so every waiter — current and future — unwinds with it.
        dead_ = board->dead_ranks();
        aborted_ = true;
        cv_.notify_all();
        return false;
      });
  if (status == WaitStatus::kExpired || generation_ == gen) {
    throw_aborted();  // death declared here, or woken by abort()
  }
}

void Communicator::AbortableBarrier::abort() {
  {
    check::ScopedLock lock(mu_);
    aborted_ = true;  // dead_ deliberately untouched: a resize abort stays one
  }
  cv_.notify_all();
}

void Communicator::AbortableBarrier::throw_aborted() const {
  if (!dead_.empty()) {
    throw WorldResizeRequired(dead_, /*step=*/-1,
                              "collective wait deadline exceeded");
  }
  throw CommAborted();
}

void Communicator::barrier(int rank, const char* tag) {
  PODNET_VERIFY_COLLECTIVE(main_, rank, check::CollectiveOp::kBarrier, 0,
                           check::CollectiveDtype::kNone, -1, -1, tag);
  main_.barrier.arrive_and_wait(rank);
}

void Communicator::abort() {
  // Both channels: a rank's communication thread may be blocked at a
  // bucket rendezvous while its main thread is blocked at a main one.
  main_.barrier.abort();
  bucket_.barrier.abort();
}

void Communicator::run_allreduce(Channel& ch, int rank, std::span<float> data,
                                 AllReduceAlgorithm alg) {
  // Timed even for the single-rank no-op so calls/bytes counters stay
  // meaningful at every slice size.
  obs::Timer timer;
  if (num_ranks_ > 1) {
    switch (alg) {
      case AllReduceAlgorithm::kFlat:
        allreduce_flat(ch, rank, data);
        break;
      case AllReduceAlgorithm::kRing:
        allreduce_ring(ch, rank, data);
        break;
      case AllReduceAlgorithm::kHalvingDoubling:
        if (is_power_of_two(num_ranks_)) {
          allreduce_halving_doubling(ch, rank, data);
        } else {
          allreduce_ring(ch, rank, data);  // documented fallback
        }
        break;
      case AllReduceAlgorithm::kTwoLevel:
        allreduce_two_level(ch, rank, data);
        break;
      case AllReduceAlgorithm::kTwoLevelRing:
        allreduce_two_level_ring(ch, rank, data);
        break;
    }
    // Scripted payload corruption lands on this rank's finished copy, the
    // shared-memory analogue of a link corrupting the received chunk.
    if (injector_ != nullptr) injector_->maybe_corrupt(global_rank(rank), data);
  }
  const double seconds = timer.seconds();
  StatsCell& cell = stats_[static_cast<std::size_t>(rank)];
  check::ScopedLock lock(cell.mu);
  cell.data.allreduce[static_cast<int>(alg)].record(
      data.size() * sizeof(float), seconds);
}

void Communicator::allreduce_sum(int rank, std::span<float> data,
                                 AllReduceAlgorithm alg, const char* tag) {
  PODNET_VERIFY_COLLECTIVE(main_, rank, check::CollectiveOp::kAllReduce,
                           data.size(), check::CollectiveDtype::kF32,
                           static_cast<std::int32_t>(alg), -1, tag);
  run_allreduce(main_, rank, data, alg);
}

void Communicator::allreduce_sum_bucket(int rank, std::span<float> data,
                                        AllReduceAlgorithm alg,
                                        std::int64_t bucket, const char* tag) {
  PODNET_VERIFY_COLLECTIVE(bucket_, rank, check::CollectiveOp::kAllReduce,
                           data.size(), check::CollectiveDtype::kF32,
                           static_cast<std::int32_t>(alg), bucket,
                           tag != nullptr ? tag : "bucket_allreduce");
  run_allreduce(bucket_, rank, data, alg);
}

void Communicator::share_buffer(Channel& ch, int rank, std::span<float> data) {
  ch.bufs[static_cast<std::size_t>(rank)] = data;
  sync(ch, rank);
  assert(ch.bufs[0].size() == data.size());
}

const float* Communicator::publish(Channel& ch, int rank, const void* payload,
                                   std::size_t bytes) {
  assert(bytes <= kOneShotMaxFloats * sizeof(float));
  unsigned char& parity = ch.parity[static_cast<std::size_t>(rank)];
  float* slots = ch.slots.get() + static_cast<std::size_t>(parity) *
                                       num_ranks_ * kOneShotMaxFloats;
  parity ^= 1;
  if (bytes != 0) {
    std::memcpy(slots + static_cast<std::size_t>(rank) * kOneShotMaxFloats,
                payload, bytes);
  }
  // No rendezvous after the reads: a rank reuses this slot set only at its
  // call after next, which it cannot enter before every rank has arrived
  // at the next call's rendezvous, i.e. has finished reading this one.
  sync(ch, rank);
  return slots;
}

void Communicator::allreduce_flat(Channel& ch, int rank,
                                  std::span<float> data) {
  if (data.size() <= kOneShotMaxFloats) {
    const float* slots =
        publish(ch, rank, data.data(), data.size() * sizeof(float));
    std::fill(data.begin(), data.end(), 0.f);
    for (int r = 0; r < num_ranks_; ++r) {
      accumulate_range(slots + static_cast<std::size_t>(r) * kOneShotMaxFloats,
                       data.data(), 0, data.size());
    }
    return;
  }
  // Safe before the first rendezvous: every collective that touches
  // ch.scratch ends with a rendezvous after its last read of it.
  if (rank == 0) ch.scratch.assign(data.size(), 0.f);
  share_buffer(ch, rank, data);
  // Each rank reduces its chunk across every replica into shared scratch.
  const auto [begin, end] = chunk_range(data.size(), num_ranks_, rank);
  for (int r = 0; r < num_ranks_; ++r) {
    accumulate_range(ch.bufs[static_cast<std::size_t>(r)].data(),
                     ch.scratch.data(), begin, end);
  }
  sync(ch, rank);
  copy_range(ch.scratch.data(), data.data(), 0, data.size());
  sync(ch, rank);
}

void Communicator::allreduce_ring(Channel& ch, int rank,
                                  std::span<float> data) {
  const int R = num_ranks_;
  share_buffer(ch, rank, data);
  const float* left =
      ch.bufs[static_cast<std::size_t>((rank - 1 + R) % R)].data();

  // Reduce-scatter: after R-1 steps rank r holds the fully reduced chunk
  // (r + 1) mod R.
  for (int s = 0; s < R - 1; ++s) {
    const int c = ((rank - s - 1) % R + R) % R;
    const auto [begin, end] = chunk_range(data.size(), R, c);
    accumulate_range(left, data.data(), begin, end);
    sync(ch, rank);
  }
  // All-gather: propagate reduced chunks around the ring.
  for (int s = 0; s < R - 1; ++s) {
    const int c = ((rank - s) % R + R) % R;
    const auto [begin, end] = chunk_range(data.size(), R, c);
    copy_range(left, data.data(), begin, end);
    sync(ch, rank);
  }
}

void Communicator::allreduce_halving_doubling(Channel& ch, int rank,
                                              std::span<float> data) {
  const int R = num_ranks_;
  share_buffer(ch, rank, data);

  // Recursive halving (reduce-scatter): each round the owned range halves;
  // the rank keeps the half matching its partner bit and accumulates the
  // partner's copy of that half. Parent ranges are recorded so the
  // doubling phase works for any vector size (halves may be unequal or
  // even empty when data.size() < ranks).
  std::size_t lo = 0, hi = data.size();
  std::vector<std::pair<std::size_t, std::size_t>> parents;
  parents.reserve(8);
  for (int bit = R >> 1; bit >= 1; bit >>= 1) {
    const int partner = rank ^ bit;
    const float* pbuf = ch.bufs[static_cast<std::size_t>(partner)].data();
    const std::size_t mid = lo + (hi - lo) / 2;
    parents.emplace_back(lo, hi);
    if ((rank & bit) == 0) {
      hi = mid;
    } else {
      lo = mid;
    }
    accumulate_range(pbuf, data.data(), lo, hi);
    sync(ch, rank);
  }
  // Recursive doubling (all-gather): reverse the rounds; the partner owns
  // exactly the complement of our range within the shared parent range.
  for (int bit = 1; bit < R; bit <<= 1) {
    const int partner = rank ^ bit;
    const float* pbuf = ch.bufs[static_cast<std::size_t>(partner)].data();
    const auto [plo, phi] = parents.back();
    parents.pop_back();
    copy_range(pbuf, data.data(), plo, lo);
    copy_range(pbuf, data.data(), hi, phi);
    lo = plo;
    hi = phi;
    sync(ch, rank);
  }
  assert(lo == 0 && hi == data.size());
}

void Communicator::allreduce_two_level(Channel& ch, int rank,
                                       std::span<float> data) {
  // Hierarchical all-reduce: ranks are split into consecutive groups of
  // size gs ~ sqrt(R). Phase 1 computes each group's sum; phase 2
  // all-reduces the group sums among "position peers" (rank i of every
  // group). This is the shared-memory analogue of reducing along each
  // torus dimension in turn (Ying et al.).
  const int R = num_ranks_;
  const std::size_t n = data.size();
  const int gs = group_size_for(R);
  const int groups = R / gs;
  // Zeroed before the first rendezvous, as in allreduce_flat.
  if (rank == 0) {
    ch.scratch.assign(n * static_cast<std::size_t>(groups + gs), 0.f);
  }
  share_buffer(ch, rank, data);
  const int group = rank / gs;
  const int pos = rank % gs;

  // Phase 1: each member reduces its chunk of the group sum into the
  // group's scratch block.
  {
    float* block = ch.scratch.data() + static_cast<std::size_t>(group) * n;
    const auto [begin, end] = chunk_range(n, gs, pos);
    for (int m = 0; m < gs; ++m) {
      accumulate_range(ch.bufs[static_cast<std::size_t>(group * gs + m)].data(),
                       block, begin, end);
    }
  }
  sync(ch, rank);
  // Everyone adopts its group's sum.
  {
    const float* block =
        ch.scratch.data() + static_cast<std::size_t>(group) * n;
    copy_range(block, data.data(), 0, n);
  }
  sync(ch, rank);

  // Phase 2: position peers (one rank per group) reduce the group sums.
  // Each peer set uses its own scratch block, so the sets run in parallel.
  {
    float* block =
        ch.scratch.data() + static_cast<std::size_t>(groups + pos) * n;
    const auto [begin, end] = chunk_range(n, groups, group);
    for (int m = 0; m < groups; ++m) {
      accumulate_range(ch.bufs[static_cast<std::size_t>(m * gs + pos)].data(),
                       block, begin, end);
    }
  }
  sync(ch, rank);
  {
    const float* block =
        ch.scratch.data() + static_cast<std::size_t>(groups + pos) * n;
    copy_range(block, data.data(), 0, n);
  }
  sync(ch, rank);
}

void Communicator::allreduce_two_level_ring(Channel& ch, int rank,
                                            std::span<float> data) {
  // Hierarchical ring: the ring algorithm run along each "torus dimension"
  // in turn, with no shared scratch — the per-bucket shape of Ying et
  // al.'s 2-D scheme. Ranks form `groups` consecutive groups of size gs.
  //   Phase A: intra-group ring reduce-scatter — after gs-1 steps, group
  //            member `pos` owns the group-reduced chunk (pos+1) mod gs.
  //   Phase B: cross-group ring all-reduce of the owned chunk among
  //            position peers (member `pos` of every group), so the owned
  //            chunk becomes globally reduced — computed once per peer
  //            ring and copied, preserving bit-identity across ranks.
  //   Phase C: intra-group ring all-gather of the gs finished chunks.
  // gs == 1 (prime R) degenerates to the plain ring across all ranks.
  const int R = num_ranks_;
  const std::size_t n = data.size();
  share_buffer(ch, rank, data);
  const int gs = group_size_for(R);
  const int groups = R / gs;
  const int group = rank / gs;
  const int pos = rank % gs;
  const int base = group * gs;
  const float* group_left =
      ch.bufs[static_cast<std::size_t>(base + (pos - 1 + gs) % gs)].data();
  const float* peer_left = ch.bufs[static_cast<std::size_t>(
      ((group - 1 + groups) % groups) * gs + pos)].data();

  // Phase A: intra-group ring reduce-scatter over the full vector.
  for (int s = 0; s < gs - 1; ++s) {
    const int c = ((pos - s - 1) % gs + gs) % gs;
    const auto [begin, end] = chunk_range(n, gs, c);
    accumulate_range(group_left, data.data(), begin, end);
    sync(ch, rank);
  }
  // This rank now owns the group-reduced chunk (pos+1) mod gs (the whole
  // vector when gs == 1).
  const int owned = (pos + 1) % gs;
  const auto [obegin, oend] = chunk_range(n, gs, owned);
  const std::size_t on = oend - obegin;

  // Phase B: ring all-reduce of [obegin, oend) among position peers; the
  // peer ring's chunking is relative to the owned sub-span.
  for (int s = 0; s < groups - 1; ++s) {
    const int c = ((group - s - 1) % groups + groups) % groups;
    const auto [b, e] = chunk_range(on, groups, c);
    accumulate_range(peer_left, data.data(), obegin + b, obegin + e);
    sync(ch, rank);
  }
  for (int s = 0; s < groups - 1; ++s) {
    const int c = ((group - s) % groups + groups) % groups;
    const auto [b, e] = chunk_range(on, groups, c);
    copy_range(peer_left, data.data(), obegin + b, obegin + e);
    sync(ch, rank);
  }

  // Phase C: intra-group ring all-gather — step s adopts the finished
  // chunk (pos - s) mod gs from the group-left neighbor.
  for (int s = 0; s < gs - 1; ++s) {
    const int c = ((pos - s) % gs + gs) % gs;
    const auto [begin, end] = chunk_range(n, gs, c);
    copy_range(group_left, data.data(), begin, end);
    sync(ch, rank);
  }
}

void Communicator::broadcast(int rank, int root, std::span<float> data,
                             const char* tag) {
  if (num_ranks_ == 1) return;
  PODNET_VERIFY_COLLECTIVE(main_, rank, check::CollectiveOp::kBroadcast,
                           data.size(), check::CollectiveDtype::kF32, root, -1,
                           tag);
  obs::Timer timer;
  share_buffer(main_, rank, data);
  if (rank != root) {
    const float* src = main_.bufs[static_cast<std::size_t>(root)].data();
    copy_range(src, data.data(), 0, data.size());
  }
  sync(main_, rank);
  record_stats(rank, &CommStats::broadcast, data.size() * sizeof(float),
               timer.seconds());
}

void Communicator::allgather(int rank, std::span<const float> in,
                             std::span<float> out, const char* tag) {
  assert(out.size() == in.size() * static_cast<std::size_t>(num_ranks_));
  if (num_ranks_ == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  PODNET_VERIFY_COLLECTIVE(main_, rank, check::CollectiveOp::kAllGather,
                           in.size(), check::CollectiveDtype::kF32, -1, -1,
                           tag);
  obs::Timer timer;
  if (rank == 0) main_.scratch.resize(out.size());
  sync(main_, rank);
  std::copy(in.begin(), in.end(),
            main_.scratch.begin() +
                static_cast<std::ptrdiff_t>(
                    in.size() * static_cast<std::size_t>(rank)));
  sync(main_, rank);
  std::copy(main_.scratch.begin(), main_.scratch.begin() + out.size(),
            out.begin());
  sync(main_, rank);
  record_stats(rank, &CommStats::allgather, in.size() * sizeof(float),
               timer.seconds());
}

template <typename Fold>
void Communicator::fold_scalars(int rank, double value, std::int32_t detail,
                                const char* tag, Fold fold) {
  PODNET_VERIFY_COLLECTIVE(main_, rank, check::CollectiveOp::kScalarReduce, 1,
                           check::CollectiveDtype::kF64, detail, -1, tag);
  obs::Timer timer;
  const float* slots = publish(main_, rank, &value, sizeof value);
  for (int r = 0; r < num_ranks_; ++r) {
    double v;
    std::memcpy(&v, slots + static_cast<std::size_t>(r) * kOneShotMaxFloats,
                sizeof v);
    fold(r, v);
  }
  record_stats(rank, &CommStats::scalar, sizeof(double), timer.seconds());
}

double Communicator::allreduce_scalar(int rank, double value,
                                      const char* tag) {
  if (num_ranks_ == 1) return value;
  double total = 0.0;
  fold_scalars(rank, value, 0, tag, [&](int, double v) { total += v; });
  return total;
}

std::pair<double, double> Communicator::allreduce_minmax(int rank,
                                                         double value,
                                                         const char* tag) {
  if (num_ranks_ == 1) return {value, value};
  double lo = 0, hi = 0;
  fold_scalars(rank, value, 2, tag, [&](int r, double v) {
    lo = r == 0 ? v : std::min(lo, v);
    hi = r == 0 ? v : std::max(hi, v);
  });
  return {lo, hi};
}

}  // namespace podnet::dist

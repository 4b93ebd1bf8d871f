// Communicator: MPI-style collectives over shared-memory replica threads.
//
// Each simulated TPU core is a thread executing the same SPMD program; the
// Communicator provides the collectives the paper's training step needs:
// gradient all-reduce (Sec 3.1), batch-norm group reductions (Sec 3.4), and
// the eval-metric reduction of the distributed evaluation loop (Sec 3.3).
//
// Five all-reduce algorithms are implemented. They produce *bit-identical
// results on every rank* (a reduced chunk is computed once and then copied),
// which is the invariant that keeps data-parallel replicas in lockstep
// without weight broadcasts; tests assert it. Different algorithms may
// differ from each other in the last float bit (different reduction trees).
//
// Channels: the Communicator exposes two independent collective streams.
// The *main* channel carries the trainer's ordered collectives (BN sync,
// eval reductions, checkpoints). The *bucket* channel carries overlapped
// gradient all-reduces issued by each rank's dedicated communication
// thread (dist::BucketReducer) while the main thread keeps running
// backward. Each channel owns its own barrier, exchange buffers, and
// PODNET_CHECK verifier, so a bucket collective can never pair with — or
// deadlock against — a main-channel rendezvous.
//
// Thread contract: every rank must call every collective in the same order
// *per channel* (standard MPI semantics). Calls block until all ranks
// arrive. In
// PODNET_CHECK builds that contract is *verified*: every collective entry
// publishes a per-rank fingerprint (sequence number, op kind, element
// count, dtype, call-site tag) that is cross-checked at the rendezvous,
// and any mismatch — wrong count, skipped barrier, different op — aborts
// the communicator and throws check::CollectiveMismatch on every rank
// with a per-rank diff.
//
// Fault tolerance: when a replica dies, the surviving ranks would wait at
// the next barrier forever. abort() breaks that deadlock — every blocked
// or future barrier wait throws CommAborted, unwinding all replicas so
// the supervised training loop can roll back and relaunch. An aborted
// Communicator is permanently unusable; recovery builds a fresh one.
//
// Elastic recovery: with a DeadlinePolicy enabled (CommOptions), no
// barrier wait is indefinite. Waits are sliced with exponential backoff;
// after the straggler-grace attempts are spent, missing ranks whose
// heartbeats (HealthBoard) have gone stale are declared permanently dead,
// the communicator self-aborts, and every blocked rank throws
// WorldResizeRequired so the supervised loop can rebuild the world at the
// surviving size with a compacted rank map (CommOptions::global_ranks
// maps this world's local ranks back to original rank ids).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/mutex.h"
#include "dist/deadline.h"
#include "dist/health.h"
#ifdef PODNET_CHECK
#include "check/collective.h"
#endif

namespace podnet::dist {

class FaultInjector;

// Thrown out of collectives on every surviving rank after abort(): a
// secondary symptom of some other rank's primary failure.
class CommAborted : public std::runtime_error {
 public:
  CommAborted() : std::runtime_error("communicator aborted") {}
};

enum class AllReduceAlgorithm {
  kFlat,              // <= kOneShotMaxFloats: 1 rendezvous, each rank
                      // sums all slot copies; above: chunked reduce into
                      // scratch, copy-out (3). Same 0.f+x0+x1+... bits.
  kRing,              // 2(R-1)-step ring reduce-scatter + all-gather
  kHalvingDoubling,   // recursive halving/doubling (power-of-two ranks)
  kTwoLevel,          // hierarchical: group-local sum, then cross-group —
                      // the functional form of Ying et al.'s 2-D scheme
  kTwoLevelRing,      // hierarchical ring: intra-group ring reduce-scatter,
                      // cross-group ring all-reduce of the owned chunk
                      // among position peers, intra-group ring all-gather —
                      // scratch-free, sized for per-bucket payloads
};

std::string to_string(AllReduceAlgorithm alg);

inline constexpr int kNumAllReduceAlgorithms = 5;

// Wall time, call count, and payload bytes one rank spent inside a class
// of collective. "Inside" includes barrier waits, so on an oversubscribed
// host skew lands here too — exactly what a step-time profile should show.
struct CollectiveStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;  // payload bytes of this rank's buffer
  double seconds = 0;

  void record(std::uint64_t payload_bytes, double s) {
    ++calls;
    bytes += payload_bytes;
    seconds += s;
  }
};

// One rank's accumulated collective timings, tagged by operation and — for
// all-reduce — by algorithm. Cache-line aligned: ranks update their own
// entry concurrently.
struct alignas(64) CommStats {
  std::array<CollectiveStats, kNumAllReduceAlgorithms> allreduce;  // by alg
  CollectiveStats broadcast;
  CollectiveStats allgather;
  CollectiveStats scalar;  // allreduce_scalar / _max / _minmax

  // Totals across every all-reduce algorithm.
  CollectiveStats allreduce_total() const {
    CollectiveStats t;
    for (const CollectiveStats& s : allreduce) {
      t.calls += s.calls;
      t.bytes += s.bytes;
      t.seconds += s.seconds;
    }
    return t;
  }
};

// Elastic wiring for a Communicator. Default-constructed options give the
// legacy behavior: no deadlines, identity rank map, generation 0.
struct CommOptions {
  // Deadline-sliced barrier waits; disabled (soft_timeout_ms == 0) means
  // waits block until woken, as before elastic recovery existed.
  DeadlinePolicy deadline;
  // Heartbeat/death registry shared by every communicator of one world
  // incarnation (gradient comm + BN-group comms). Null with deadlines
  // enabled allocates a private board over this communicator's ranks.
  std::shared_ptr<HealthBoard> health;
  // Local rank -> original rank id. Empty = identity (an unresized world).
  // After a resize the supervisor passes the compacted survivor map, so
  // death declarations and fault scripts keep naming original ranks.
  std::vector<int> global_ranks;
  // World generation: bumped by the supervisor on every resize. Stamped
  // into PODNET_CHECK collective fingerprints so a collective from a
  // stale world incarnation can never silently pair with a resized one.
  std::uint64_t generation = 0;
};

class Communicator {
 public:
  // kFlat payloads of at most this many floats, and every scalar op, take
  // the one-rendezvous path. Measured on a 4-vCPU host (BM_AllReduceFlat),
  // the chunked path wins above 8K-16K floats at 8 ranks and 16K-32K at 4;
  // at 4096 the one-shot path is 1.7-2.2x faster at 2, 4 and 8 ranks.
  // Slots cost 2 x ranks x 16 KiB per channel, resident only once written.
  static constexpr std::size_t kOneShotMaxFloats = 4096;

  explicit Communicator(int num_ranks, CommOptions options = {});

  int size() const { return num_ranks_; }

  // Original rank id of a local rank under the compacted rank map.
  int global_rank(int local_rank) const {
    return options_.global_ranks.empty()
               ? local_rank
               : options_.global_ranks[static_cast<std::size_t>(local_rank)];
  }

  std::uint64_t generation() const { return options_.generation; }

  // The shared health board (null when deadlines are disabled).
  HealthBoard* health() const { return options_.health.get(); }

  // Stamps this rank's heartbeat; cheap (one relaxed atomic store). The
  // trainer calls it at every step start; collectives stamp on arrival.
  void heartbeat(int rank) const {
    if (options_.health) options_.health->beat(global_rank(rank));
  }

  // Blocks until all ranks arrive; throws CommAborted after abort().
  // Verified: in PODNET_CHECK builds the calling rank's fingerprint
  // (sequence number + tag) is cross-checked against every other rank
  // before the rendezvous, so a rank that skipped a collective — or is at
  // a *different* collective — is diagnosed instead of silently pairing
  // up with the wrong rendezvous.
  void barrier(int rank, const char* tag = nullptr);

  // Permanently poisons the communicator: wakes every rank blocked at a
  // barrier and makes all subsequent collective calls throw CommAborted.
  // Called by a dying replica so its peers unwind instead of deadlocking.
  // Thread-safe and idempotent.
  void abort();

  // Attaches a fault injector consulted after each all-reduce (payload
  // corruption); nullptr detaches. Set before replicas start.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Elementwise sum across ranks, in place; all buffers must be equal size.
  // `tag` labels the call site in PODNET_CHECK collective verification
  // (nullptr -> the op name); it must be a string literal or otherwise
  // outlive the call.
  void allreduce_sum(int rank, std::span<float> data,
                     AllReduceAlgorithm alg = AllReduceAlgorithm::kRing,
                     const char* tag = nullptr);

  // Bucketed variant for overlapped gradient reduction: identical
  // arithmetic to allreduce_sum (same algorithm, same reduction order for
  // the same span), but rendezvousing on the dedicated *bucket channel* so
  // it can run on a communication thread concurrently with main-channel
  // collectives. `bucket` is the partition index of the span; in
  // PODNET_CHECK builds it is stamped into the fingerprint, so two ranks
  // reducing different buckets at the same bucket-channel position are
  // diagnosed by id rather than reported as a generic count mismatch.
  // Every rank must submit the same buckets in the same order.
  void allreduce_sum_bucket(int rank, std::span<float> data,
                            AllReduceAlgorithm alg, std::int64_t bucket,
                            const char* tag = nullptr);

  // Copies root's buffer to every rank.
  void broadcast(int rank, int root, std::span<float> data,
                 const char* tag = nullptr);

  // Concatenates per-rank inputs (equal sizes) into out on every rank.
  void allgather(int rank, std::span<const float> in, std::span<float> out,
                 const char* tag = nullptr);

  // Sum-reduces a single double across ranks (metrics), adding the values
  // in rank order from 0.0. Each scalar op is one rendezvous.
  double allreduce_scalar(int rank, double value, const char* tag = nullptr);

  // Max across ranks: the max half of allreduce_minmax.
  double allreduce_max(int rank, double value, const char* tag = nullptr) {
    return allreduce_minmax(rank, value, tag).second;
  }

  // Min and max across ranks in one rendezvous — {min, max}. Used by the
  // cross-rank agreement checks, which would otherwise pay two scalar
  // calls to learn both extremes of the same value.
  std::pair<double, double> allreduce_minmax(int rank, double value,
                                             const char* tag = nullptr);

  // Snapshot of one rank's accumulated collective timings. Returned by
  // value under the rank's stats lock, so it is consistent even while that
  // rank's communication thread is recording bucket collectives — a caller
  // never observes a half-updated CollectiveStats entry.
  CommStats stats(int rank) const {
    const StatsCell& cell = stats_[static_cast<std::size_t>(rank)];
    check::ScopedLock lock(cell.mu);
    return cell.data;
  }
  // Safe at any time: each cell is reset under its own lock.
  void reset_stats() {
    for (StatsCell& cell : stats_) {
      check::ScopedLock lock(cell.mu);
      cell.data = CommStats{};
    }
  }

 private:
  // Reusable N-party barrier that can be cancelled: abort() wakes every
  // waiter and turns this and all future waits into CommAborted throws.
  // (std::barrier has no cancellation, which is exactly the deadlock a
  // dead replica causes.) With a DeadlinePolicy, waits are additionally
  // deadline-sliced: an expired wait consults the Watchdog, and a
  // declared-dead rank aborts the barrier with the dead set attached, so
  // every waiter throws WorldResizeRequired instead of CommAborted.
  class AbortableBarrier {
   public:
    AbortableBarrier(int n, const Communicator* owner)
        : n_(n), owner_(owner), arrived_(static_cast<std::size_t>(n), 0) {}

    void arrive_and_wait(int rank);
    void abort();

   private:
    [[noreturn]] void throw_aborted() const;

    check::Mutex mu_{PODNET_LOCK_NAME("comm.barrier")};
    check::ConditionVariable cv_;
    int n_;
    const Communicator* owner_;
    std::vector<char> arrived_;  // by local rank, reset per generation
    std::vector<int> dead_;      // original rank ids; set by a declaration
    int waiting_ = 0;
    std::uint64_t generation_ = 0;
    bool aborted_ = false;
  };

  // One independent collective stream: its own rendezvous barrier, pointer
  // exchange buffers, scratch, one-shot slots, and (PODNET_CHECK)
  // fingerprint verifier. The main channel and the bucket channel never
  // share any of these, so a communication thread mid-bucket cannot pair
  // with — or clobber the slots of — the main thread's collectives.
  struct Channel {
    Channel(int n, const Communicator* owner)
        : barrier(n, owner),
          bufs(static_cast<std::size_t>(n)),
          slots(std::make_unique_for_overwrite<float[]>(
              2 * static_cast<std::size_t>(n) * kOneShotMaxFloats)),
          parity(static_cast<std::size_t>(n), 0) {}

    AbortableBarrier barrier;
    std::vector<std::span<float>> bufs;
    std::vector<float> scratch;
    // One-shot payloads, two slot sets of kOneShotMaxFloats per rank.
    // parity[r] picks the set of rank r's next one-shot call; only the
    // thread driving rank r on this channel flips it.
    std::unique_ptr<float[]> slots;
    std::vector<unsigned char> parity;
#ifdef PODNET_CHECK
    check::CollectiveVerifier verifier;
#endif
  };

  // One rank's stats under its own lock: the rank's communication thread
  // records bucket collectives while the rank's main thread reads per-step
  // deltas, so plain fields would race (and tear mid-record).
  struct alignas(64) StatsCell {
    mutable check::Mutex mu{PODNET_LOCK_NAME("comm.stats")};
    CommStats data;
  };

  // Unverified internal rendezvous, used by the collective algorithms'
  // intermediate steps (the public entry already fingerprint-checked the
  // call) and by the verifier's own exchange.
  void sync(Channel& ch, int rank) { ch.barrier.arrive_and_wait(rank); }

#ifdef PODNET_CHECK
  // Publishes this rank's fingerprint for the collective being entered on
  // `ch`, cross-checks it against every rank at a rendezvous, and — on any
  // disagreement — poisons the communicator and throws
  // check::CollectiveMismatch (on every rank, with the same per-rank
  // diff). Compiled out entirely without PODNET_CHECK.
  void verify_collective(Channel& ch, int rank, check::CollectiveOp op,
                         std::uint64_t count, check::CollectiveDtype dtype,
                         std::int32_t detail, std::int64_t bucket,
                         const char* tag);
#endif

  // Points the peers at this rank's buffer and passes one rendezvous.
  void share_buffer(Channel& ch, int rank, std::span<float> data);
  // Copies the payload into this rank's slot of its current parity, flips
  // the parity, passes one rendezvous and returns that parity's slot set.
  const float* publish(Channel& ch, int rank, const void* payload,
                       std::size_t bytes);
  // One scalar op (fingerprint detail `detail`): publishes `value` on the
  // main channel and calls fold(r, value of rank r) in rank order.
  template <typename Fold>
  void fold_scalars(int rank, double value, std::int32_t detail,
                    const char* tag, Fold fold);

  // Runs `alg` on `ch`, applies scripted corruption and records stats.
  void run_allreduce(Channel& ch, int rank, std::span<float> data,
                     AllReduceAlgorithm alg);
  void allreduce_flat(Channel& ch, int rank, std::span<float> data);
  void allreduce_ring(Channel& ch, int rank, std::span<float> data);
  void allreduce_halving_doubling(Channel& ch, int rank,
                                  std::span<float> data);
  void allreduce_two_level(Channel& ch, int rank, std::span<float> data);
  void allreduce_two_level_ring(Channel& ch, int rank, std::span<float> data);

  void record_stats(int rank, CollectiveStats CommStats::* field,
                    std::uint64_t payload_bytes, double seconds) {
    StatsCell& cell = stats_[static_cast<std::size_t>(rank)];
    check::ScopedLock lock(cell.mu);
    (cell.data.*field).record(payload_bytes, seconds);
  }

  int num_ranks_;
  CommOptions options_;
  Channel main_;
  Channel bucket_;
  FaultInjector* injector_ = nullptr;
  std::vector<StatsCell> stats_;  // indexed by rank
};

}  // namespace podnet::dist

// Prefetcher: double-buffered background batch materialization.
//
// The TPU input pipeline renders/augments batches on the host and streams
// them to the device ("infeed") while the previous step computes. The
// Prefetcher mirrors that: a background thread renders the next training
// batch while the replica trains on the current one, hiding the synthesis
// cost of SyntheticImageNet. With class texels cached, that cost is mostly
// the per-value noise draw (and any augmentation). One prefetcher per
// replica (thread-confined consumer; the producer thread is internal).
//
// No wait in the queue is unbounded (dist::deadline_wait): a producer that
// dies mid-epoch surfaces its exception through next() instead of leaving
// the consumer blocked forever, cancel() unblocks both sides, and — with a
// DeadlinePolicy enabled — a producer that silently hangs turns next()
// into a diagnosable failure after the straggler-grace window instead of
// a stuck replica.
#pragma once

#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "check/mutex.h"
#include "data/loader.h"
#include "dist/deadline.h"

namespace podnet::data {

class Prefetcher {
 public:
  // Produces the batch for one global training step.
  using Source = std::function<Batch(Index step)>;

  // Owns neither dataset nor loader configuration; reads from `loader`
  // (which it drives through the epoch/step schedule). start_step lets a
  // resumed run re-enter the schedule mid-run: batches are produced for
  // global steps [start_step, total_steps). A default (disabled) deadline
  // keeps waits sliced but unbounded, the legacy behavior.
  Prefetcher(TrainLoader* loader, Index total_steps, Index start_step = 0,
             dist::DeadlinePolicy deadline = {});

  // Test seam: batches come from `source` instead of a loader, so queue
  // behavior (slow/stuck/throwing producers) is testable in isolation.
  Prefetcher(Source source, Index total_steps, Index start_step,
             dist::DeadlinePolicy deadline);

  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  // Blocks until the next batch is ready; returns nullopt after
  // total_steps batches or after cancel(). Rethrows the producer's
  // exception if it died. With an enabled deadline, throws
  // std::runtime_error when no batch arrives within the grace window.
  std::optional<Batch> next();

  // Unblocks producer and consumer permanently: the producer exits, and
  // pending or future next() calls return nullopt. Idempotent; called by
  // the destructor. A consumer unwinding on an exception (a dead replica)
  // leaves the producer releasable instead of blocked on a full slot.
  void cancel();

 private:
  void producer_loop();

  Source source_;
  Index total_steps_;
  Index start_step_;
  dist::DeadlinePolicy deadline_;

  // Instrumented in PODNET_CHECK builds (lock-order deadlock detection);
  // plain std::mutex / std::condition_variable otherwise.
  check::Mutex mu_{PODNET_LOCK_NAME("prefetcher.slot")};
  check::ConditionVariable cv_;
  std::optional<Batch> slot_;
  std::exception_ptr producer_error_;
  bool done_ = false;
  bool cancelled_ = false;
  std::thread producer_;
};

}  // namespace podnet::data

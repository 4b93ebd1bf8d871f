// Supervisor: the recovery policy of core::train's loop of attempts.
// train() joins an attempt's replica threads and hands their per-rank
// exception captures to recover(). The supervisor starts no threads, so
// tests/supervisor_test.cc drives it with std::make_exception_ptr errors.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "core/trainer.h"

namespace podnet::core {

class Supervisor {
 public:
  // Starts from the full world; both references must outlive it.
  Supervisor(const TrainConfig& config, TrainResult& result);

  int world_size() const { return static_cast<int>(survivors_.size()); }
  // Original rank id of each local rank of the current world.
  const std::vector<int>& survivors() const { return survivors_; }
  // The "replica/N" checkpoint blob local rank `rank` resumes from: the
  // one its original rank wrote as local rank N.
  int blob_rank(int rank) const;
  // Incarnation of the world; advances on every resize.
  std::uint64_t generation() const { return generation_; }
  // Whether the next attempt resumes from config.checkpoint_path.
  bool have_checkpoint() const { return checkpoint_epoch_.has_value(); }

  // Records a full-state checkpoint of the current world at `epoch`.
  void checkpoint_written(double epoch);

  // Prepares the next attempt after one failed with the per-rank captures
  // `errors`. Resizes (elastic on, at least min_ranks survive the union of
  // the declared dead sets) or rolls back (a dist::ReplicaFailure with
  // restarts left) to the last checkpoint, updating `result`; otherwise
  // rethrows the primary failure and changes nothing.
  RecoveryOutcome recover(const std::vector<std::exception_ptr>& errors);

 private:
  const TrainConfig& config_;
  TrainResult& result_;
  std::vector<int> survivors_;
  std::vector<int> checkpoint_world_;  // survivors_ when it was written
  std::uint64_t generation_ = 0;
  std::optional<double> checkpoint_epoch_;
};

}  // namespace podnet::core

#include "core/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/checkpoint.h"
#include "dist/fault.h"
#include "dist/health.h"
#include "dist/replica.h"

namespace podnet::core {

Supervisor::Supervisor(const TrainConfig& config, TrainResult& result)
    : config_(config), result_(result) {
  for (int r = 0; r < config.replicas; ++r) survivors_.push_back(r);
  checkpoint_world_ = survivors_;
  if (config.resume &&
      std::ifstream(config.checkpoint_path, std::ios::binary).good()) {
    // The first attempt resumes where the file says; a weights-only file
    // (no "optim" blob, e.g. a finished run's) warm-starts from step 0.
    ExtraState extra;
    const CheckpointMeta meta =
        read_checkpoint_meta(config.checkpoint_path, &extra);
    checkpoint_epoch_ = find_extra(extra, "optim") ? meta.epoch : 0.0;
  }
  result_.final_world_size = world_size();
}

int Supervisor::blob_rank(int rank) const {
  const auto it = std::find(checkpoint_world_.begin(), checkpoint_world_.end(),
                            survivors_[static_cast<std::size_t>(rank)]);
  return static_cast<int>(it - checkpoint_world_.begin());
}

void Supervisor::checkpoint_written(double epoch) {
  checkpoint_epoch_ = epoch;
  checkpoint_world_ = survivors_;
}

RecoveryOutcome Supervisor::recover(
    const std::vector<std::exception_ptr>& errors) {
  const std::exception_ptr primary = dist::primary_failure(errors);
  std::string why;  // the primary failure's what()
  // Several waiters may declare overlapping dead sets, and the dying rank
  // reports its own PermanentRankDeath.
  std::vector<int> dead;
  std::int64_t failed_step = -1;  // -1: only barrier waiters saw it
  for (const std::exception_ptr& e : errors) {
    try {
      if (e) std::rethrow_exception(e);
    } catch (const dist::WorldResizeRequired& wr) {
      dead.insert(dead.end(), wr.dead_ranks().begin(), wr.dead_ranks().end());
      failed_step = std::max(failed_step, wr.step());
      if (e == primary) why = wr.what();
    } catch (const std::exception& x) {
      if (e == primary) why = x.what();
    } catch (...) {
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  const bool resize = !dead.empty() && config_.elastic;

  if (!resize) {
    // A ReplicaFailure retries at the same world size; anything else, a
    // death declaration with elastic off included, fails the run.
    try {
      std::rethrow_exception(primary);
    } catch (const dist::ReplicaFailure& failure) {
      if (result_.restarts >= config_.max_restarts) throw;
      failed_step = failure.step();
    }
  }

  std::vector<int> survivors = survivors_;
  std::erase_if(survivors, [&](int r) {
    return std::binary_search(dead.begin(), dead.end(), r);
  });
  if (resize && static_cast<int>(survivors.size()) < config_.min_ranks) {
    std::rethrow_exception(primary);  // below quorum: unrecoverable
  }

  // Lost work is counted in the failed world's step numbering.
  const double resume_epoch = checkpoint_epoch_.value_or(0.0);
  const std::int64_t resume_step = std::llround(
      resume_epoch * static_cast<double>(config_.dataset.train_size /
                                         (config_.per_replica_batch *
                                          world_size())));
  result_.failed_steps += std::max<std::int64_t>(0, failed_step - resume_step);
  result_.recovered_from_epoch = resume_epoch;
  // The relaunched attempt regenerates every eval point after the resume.
  std::erase_if(result_.history, [&](const EvalPoint& p) {
    return p.epoch > resume_epoch + 1e-9;
  });
  if (resize) {
    survivors_ = std::move(survivors);
    ++generation_;
    ++result_.resizes;
    result_.final_world_size = world_size();
    result_.resize_events.push_back(
        {resume_epoch, dead, world_size(),
         config_.per_replica_batch * world_size()});
    result_.last_recovery = RecoveryOutcome::kWorldResized;
  } else {
    ++result_.restarts;
    result_.last_recovery = RecoveryOutcome::kRolledBack;
  }
  if (config_.verbose) {
    std::printf("[recovery] %s -> %s %d: world %d from epoch %.2f (step "
                "%lld)\n",
                why.c_str(), resize ? "resize" : "restart",
                resize ? result_.resizes : result_.restarts, world_size(),
                resume_epoch, static_cast<long long>(resume_step));
    std::fflush(stdout);
  }
  if (!resize && config_.restart_backoff_ms > 0) {
    const double ms =
        config_.restart_backoff_ms * std::ldexp(1.0, result_.restarts - 1);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
  return result_.last_recovery;
}

}  // namespace podnet::core

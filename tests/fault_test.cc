// Fault-injection and recovery tests: the trainer must survive scripted
// rank failures, corrupted collectives, and stragglers, and a
// checkpoint-resumed run must be bit-identical to an uninterrupted one.
#include "dist/fault.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "dist/replica.h"
#include "effnet/model.h"

namespace podnet {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

// Pico config with dropout and stochastic depth *enabled* so the
// kill-and-resume test exercises RNG-stream checkpointing: a resumed run
// must replay the exact same dropout masks the uninterrupted run drew.
// 512 train images / (2 replicas x 32) = 8 steps per epoch.
core::TrainConfig fault_config() {
  core::TrainConfig c;
  c.spec = effnet::pico();
  c.dataset.num_classes = 8;
  c.dataset.train_size = 512;
  c.dataset.eval_size = 128;
  c.dataset.resolution = 16;
  c.replicas = 2;
  c.per_replica_batch = 32;
  c.optimizer.kind = optim::OptimizerKind::kLars;
  c.lr_per_256 = 4.0f;
  c.schedule.decay = optim::DecayKind::kPolynomial;
  c.schedule.warmup_epochs = 1.0;
  c.epochs = 4.0;
  c.eval_every_epochs = 1.0;
  c.seed = 7;
  return c;
}

TEST(FaultInjectorTest, EachFaultFiresExactlyOnce) {
  dist::FaultPlan plan;
  plan.faults.push_back({dist::FaultKind::kRankFailure, /*rank=*/1,
                         /*step=*/3});
  dist::FaultInjector injector(plan, /*num_ranks=*/2);
  EXPECT_TRUE(injector.armed());
  injector.begin_step(1, 2);  // wrong step: no fire
  injector.begin_step(0, 3);  // wrong rank: no fire
  EXPECT_THROW(injector.begin_step(1, 3), dist::ReplicaFailure);
  // Replayed after recovery: must not re-fire.
  EXPECT_NO_THROW(injector.begin_step(1, 3));
}

TEST(FaultInjectorTest, CorruptionFlipsPayloadOnMatchingStepOnly) {
  dist::FaultPlan plan;
  plan.faults.push_back({dist::FaultKind::kCorruptAllReduce, /*rank=*/0,
                         /*step=*/5, /*bit_flips=*/2});
  plan.seed = 11;
  dist::FaultInjector injector(plan, 2);
  std::vector<float> payload(64, 1.0f);
  injector.begin_step(0, 4);
  EXPECT_FALSE(injector.maybe_corrupt(0, payload));
  injector.begin_step(0, 5);
  EXPECT_FALSE(injector.maybe_corrupt(1, payload));  // other rank untouched
  EXPECT_TRUE(injector.maybe_corrupt(0, payload));
  int changed = 0;
  for (float v : payload) changed += (v != 1.0f);
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 2);
  // Fired once; the same step replayed is clean.
  EXPECT_FALSE(injector.maybe_corrupt(0, payload));
}

// The tentpole acceptance test: a run killed mid-training recovers from
// its last periodic checkpoint and finishes with *bit-identical* final
// weights to an uninterrupted same-seed run.
TEST(FaultRecoveryTest, KillAndResumeIsBitExact) {
  core::TrainConfig clean = fault_config();
  clean.checkpoint_path = temp_path("clean.ckpt");
  clean.checkpoint_every_epochs = 1.0;
  const core::TrainResult clean_r = core::train(clean);
  EXPECT_EQ(clean_r.restarts, 0);
  EXPECT_EQ(clean_r.failed_steps, 0);
  EXPECT_EQ(clean_r.recovered_from_epoch, -1);

  core::TrainConfig faulted = fault_config();
  faulted.checkpoint_path = temp_path("faulted.ckpt");
  faulted.checkpoint_every_epochs = 1.0;
  faulted.max_restarts = 1;
  // Kill rank 1 at step 20 (epoch 2.5); the last good checkpoint is the
  // epoch-2 one at step 16.
  faulted.faults.faults.push_back(
      {dist::FaultKind::kRankFailure, /*rank=*/1, /*step=*/20});
  const core::TrainResult faulted_r = core::train(faulted);

  EXPECT_EQ(faulted_r.restarts, 1);
  EXPECT_EQ(faulted_r.failed_steps, 4);  // steps 16..19 replayed
  EXPECT_NEAR(faulted_r.recovered_from_epoch, 2.0, 1e-9);

  // Same history (the post-rollback epochs are regenerated identically)...
  ASSERT_EQ(faulted_r.history.size(), clean_r.history.size());
  for (std::size_t i = 0; i < clean_r.history.size(); ++i) {
    EXPECT_EQ(faulted_r.history[i].epoch, clean_r.history[i].epoch);
    EXPECT_EQ(faulted_r.history[i].train_loss, clean_r.history[i].train_loss)
        << "epoch " << clean_r.history[i].epoch;
    EXPECT_EQ(faulted_r.history[i].eval_accuracy,
              clean_r.history[i].eval_accuracy);
  }
  // ...and a byte-identical final checkpoint (weights, BN statistics,
  // meta, CRC).
  EXPECT_EQ(read_file(clean.checkpoint_path),
            read_file(faulted.checkpoint_path));
}

// The user-facing resume knob: a run that died fatally (retries exhausted)
// can be relaunched as a *separate* train() call with resume=true and
// still match the uninterrupted run bit-for-bit.
TEST(FaultRecoveryTest, ManualResumeAfterFatalFaultIsBitExact) {
  core::TrainConfig clean = fault_config();
  clean.checkpoint_path = temp_path("manual_clean.ckpt");
  clean.checkpoint_every_epochs = 1.0;
  core::train(clean);

  core::TrainConfig dying = fault_config();
  dying.checkpoint_path = temp_path("manual_resume.ckpt");
  dying.checkpoint_every_epochs = 1.0;
  dying.max_restarts = 0;  // fatal: no supervised retry
  dying.faults.faults.push_back(
      {dist::FaultKind::kRankFailure, /*rank=*/0, /*step=*/20});
  EXPECT_THROW(core::train(dying), dist::ReplicaFailure);

  core::TrainConfig resumed = fault_config();
  resumed.checkpoint_path = dying.checkpoint_path;
  resumed.checkpoint_every_epochs = 1.0;
  resumed.resume = true;
  const core::TrainResult r = core::train(resumed);
  EXPECT_EQ(r.restarts, 0);
  // Only the post-resume epochs are in this call's history.
  ASSERT_FALSE(r.history.empty());
  EXPECT_GT(r.history.front().epoch, 2.0 - 1e-9);
  EXPECT_EQ(read_file(clean.checkpoint_path),
            read_file(resumed.checkpoint_path));
}

TEST(FaultRecoveryTest, RankFailureWithoutCheckpointRestartsFromScratch) {
  core::TrainConfig clean = fault_config();
  clean.epochs = 2.0;
  const core::TrainResult clean_r = core::train(clean);

  core::TrainConfig faulted = clean;
  faulted.max_restarts = 1;
  faulted.faults.faults.push_back(
      {dist::FaultKind::kRankFailure, /*rank=*/0, /*step=*/5});
  const core::TrainResult faulted_r = core::train(faulted);
  EXPECT_EQ(faulted_r.restarts, 1);
  EXPECT_EQ(faulted_r.failed_steps, 5);
  EXPECT_EQ(faulted_r.recovered_from_epoch, 0.0);
  // The retry replays the whole run; same seed, same result.
  EXPECT_EQ(faulted_r.final_train_loss, clean_r.final_train_loss);
  EXPECT_EQ(faulted_r.peak_accuracy, clean_r.peak_accuracy);
}

TEST(FaultRecoveryTest, RankFailureExhaustsRetriesAndThrows) {
  core::TrainConfig c = fault_config();
  c.epochs = 2.0;
  c.max_restarts = 0;
  c.faults.faults.push_back(
      {dist::FaultKind::kRankFailure, /*rank=*/1, /*step=*/5});
  EXPECT_THROW(core::train(c), dist::ReplicaFailure);
}

TEST(FaultRecoveryTest, CorruptedAllReduceDetectedAndRecovered) {
  core::TrainConfig clean = fault_config();
  clean.epochs = 2.0;
  const core::TrainResult clean_r = core::train(clean);

  core::TrainConfig faulted = clean;
  faulted.verify_collectives = true;
  faulted.max_restarts = 1;
  faulted.faults.faults.push_back({dist::FaultKind::kCorruptAllReduce,
                                   /*rank=*/0, /*step=*/6, /*bit_flips=*/3});
  faulted.faults.seed = 21;
  const core::TrainResult faulted_r = core::train(faulted);
  EXPECT_EQ(faulted_r.restarts, 1);
  EXPECT_EQ(faulted_r.failed_steps, 6);
  // The corrupted step never reached the optimizer; the retry reproduces
  // the clean run exactly.
  EXPECT_EQ(faulted_r.final_train_loss, clean_r.final_train_loss);
  EXPECT_EQ(faulted_r.peak_accuracy, clean_r.peak_accuracy);
}

TEST(FaultRecoveryTest, CorruptedAllReduceThrowsWithoutRetries) {
  core::TrainConfig c = fault_config();
  c.epochs = 2.0;
  c.verify_collectives = true;
  c.max_restarts = 0;
  c.faults.faults.push_back({dist::FaultKind::kCorruptAllReduce,
                             /*rank=*/1, /*step=*/3, /*bit_flips=*/1});
  EXPECT_THROW(core::train(c), dist::ReplicaFailure);
}

TEST(FaultRecoveryTest, StragglerDelaysButDoesNotChangeResults) {
  core::TrainConfig clean = fault_config();
  clean.epochs = 2.0;
  const core::TrainResult clean_r = core::train(clean);

  core::TrainConfig delayed = clean;
  delayed.faults.faults.push_back({dist::FaultKind::kStragglerDelay,
                                   /*rank=*/1, /*step=*/4, /*bit_flips=*/1,
                                   /*delay_ms=*/50.0});
  const core::TrainResult delayed_r = core::train(delayed);
  EXPECT_EQ(delayed_r.restarts, 0);
  EXPECT_EQ(delayed_r.failed_steps, 0);
  EXPECT_EQ(delayed_r.final_train_loss, clean_r.final_train_loss);
  EXPECT_EQ(delayed_r.peak_accuracy, clean_r.peak_accuracy);
}

TEST(FaultRecoveryTest, ConfigValidation) {
  core::TrainConfig c = fault_config();
  c.checkpoint_every_epochs = 1.0;  // no checkpoint_path
  EXPECT_THROW(core::train(c), std::invalid_argument);
  c.checkpoint_every_epochs = 0.0;
  c.resume = true;  // no checkpoint_path either
  EXPECT_THROW(core::train(c), std::invalid_argument);
  c.resume = false;
  // An eval cadence that never advances would spin forever.
  for (double every : {0.0, -1.0}) {
    c.eval_every_epochs = every;
    EXPECT_THROW(core::train(c), std::invalid_argument) << every;
  }
  c.eval_every_epochs = 1.0;
  c.per_replica_batch = 0;  // no steps per epoch
  EXPECT_THROW(core::train(c), std::invalid_argument);
  c.per_replica_batch = fault_config().per_replica_batch;
  // Fewer than two classes is no classification task.
  for (int classes : {1, 0}) {
    c.dataset.num_classes = classes;
    EXPECT_THROW(core::train(c), std::invalid_argument) << classes;
  }
}

// ---- run_replicas failure-capture policy (satellite) -----------------------

TEST(ReplicaCaptureTest, CollectReturnsEveryRanksException) {
  const auto errors = dist::run_replicas_collect(4, [](int rank) {
    if (rank == 1 || rank == 3) {
      throw std::runtime_error("rank " + std::to_string(rank));
    }
  });
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0], nullptr);
  EXPECT_NE(errors[1], nullptr);
  EXPECT_EQ(errors[2], nullptr);
  EXPECT_NE(errors[3], nullptr);
}

TEST(ReplicaCaptureTest, PrimaryFailureIsLowestRankRealError) {
  const auto errors = dist::run_replicas_collect(4, [](int rank) {
    if (rank == 0) throw dist::CommAborted();  // secondary echo
    if (rank >= 2) throw std::runtime_error("rank " + std::to_string(rank));
  });
  const std::exception_ptr primary = dist::primary_failure(errors);
  ASSERT_NE(primary, nullptr);
  try {
    std::rethrow_exception(primary);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2");
  }
}

TEST(ReplicaCaptureTest, AllCommAbortedFallsBackToLowestRank) {
  const auto errors = dist::run_replicas_collect(
      2, [](int) { throw dist::CommAborted(); });
  const std::exception_ptr primary = dist::primary_failure(errors);
  ASSERT_NE(primary, nullptr);
  EXPECT_THROW(std::rethrow_exception(primary), dist::CommAborted);
}

TEST(ReplicaCaptureTest, RunReplicasRethrowsPrimary) {
  EXPECT_THROW(
      dist::run_replicas(3,
                         [](int rank) {
                           if (rank == 2) {
                             throw dist::ReplicaFailure("boom", 2, 7);
                           }
                           throw dist::CommAborted();
                         }),
      dist::ReplicaFailure);
  EXPECT_NO_THROW(dist::run_replicas(3, [](int) {}));
}

}  // namespace
}  // namespace podnet

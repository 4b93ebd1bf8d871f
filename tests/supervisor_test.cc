// Recovery-policy tests for core::Supervisor. The supervisor starts no
// threads, so each test hands it the per-rank exception captures of one
// failed attempt directly and checks the next attempt's world and the
// recovery fields of the TrainResult.
#include "core/supervisor.h"

#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "dist/communicator.h"
#include "dist/fault.h"
#include "dist/health.h"

namespace podnet::core {
namespace {

// 512 train images / (4 replicas x 16) = 8 steps per epoch.
TrainConfig supervised_config() {
  TrainConfig c;
  c.dataset.train_size = 512;
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.max_restarts = 1;
  return c;
}

TrainResult result_with_evals(std::vector<double> epochs) {
  TrainResult r;
  for (double e : epochs) {
    EvalPoint p;
    p.epoch = e;
    r.history.push_back(p);
  }
  return r;
}

std::vector<double> epochs_of(const TrainResult& r) {
  std::vector<double> out;
  for (const EvalPoint& p : r.history) out.push_back(p.epoch);
  return out;
}

std::exception_ptr failure(int rank, std::int64_t step) {
  return std::make_exception_ptr(dist::ReplicaFailure("fault", rank, step));
}

std::exception_ptr declared_dead(std::vector<int> dead, std::int64_t step) {
  return std::make_exception_ptr(
      dist::WorldResizeRequired(std::move(dead), step, "deadline"));
}

std::exception_ptr aborted() {
  return std::make_exception_ptr(dist::CommAborted());
}

TEST(SupervisorTest, RollsBackToTheLastCheckpoint) {
  const TrainConfig c = supervised_config();
  TrainResult r = result_with_evals({1.0, 2.0, 3.0});
  Supervisor sup(c, r);
  sup.checkpoint_written(2.0);  // step 16

  // Rank 1 fails at step 20; its peers only see the abort.
  const RecoveryOutcome out =
      sup.recover({aborted(), failure(1, 20), aborted(), nullptr});

  EXPECT_EQ(out, RecoveryOutcome::kRolledBack);
  EXPECT_EQ(r.last_recovery, RecoveryOutcome::kRolledBack);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.failed_steps, 4);  // steps 16..19 are replayed
  EXPECT_EQ(r.recovered_from_epoch, 2.0);
  EXPECT_EQ(epochs_of(r), (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(sup.have_checkpoint());
  // Same world, same incarnation.
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sup.generation(), 0u);
  EXPECT_EQ(r.resizes, 0);
  EXPECT_TRUE(r.resize_events.empty());
}

TEST(SupervisorTest, RollsBackToStepZeroWithoutACheckpoint) {
  const TrainConfig c = supervised_config();
  TrainResult r = result_with_evals({1.0});
  Supervisor sup(c, r);

  EXPECT_EQ(sup.recover({failure(0, 13), aborted(), aborted(), aborted()}),
            RecoveryOutcome::kRolledBack);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.failed_steps, 13);
  EXPECT_EQ(r.recovered_from_epoch, 0.0);
  EXPECT_TRUE(r.history.empty());
  EXPECT_FALSE(sup.have_checkpoint());
}

// A model-free checkpoint at `epoch`; `full_state` adds the "optim" blob a
// periodic checkpoint carries (a finished run's final file has none).
std::string checkpoint_at(const std::string& name, double epoch,
                          bool full_state) {
  const std::string path = ::testing::TempDir() + "/" + name;
  CheckpointMeta meta;
  meta.step = 16;
  meta.epoch = epoch;
  ExtraState extra;
  if (full_state) extra.emplace_back("optim", std::vector<std::uint8_t>{1});
  save_checkpoint(path, {}, {}, meta, extra);
  return path;
}

TEST(SupervisorTest, ResumedRunRollsBackToTheResumedCheckpoint) {
  TrainConfig c = supervised_config();
  c.resume = true;
  c.checkpoint_path = checkpoint_at("resumed_epoch2.ckpt", 2.0, true);
  TrainResult r = result_with_evals({3.0});
  Supervisor sup(c, r);
  EXPECT_TRUE(sup.have_checkpoint());

  // No periodic checkpoint yet in this run: the rollback goes back to the
  // file it resumed from, epoch 2 = step 16.
  sup.recover({failure(1, 20), aborted(), aborted(), aborted()});
  EXPECT_EQ(r.recovered_from_epoch, 2.0);
  EXPECT_EQ(r.failed_steps, 20 - 16);
  EXPECT_EQ(epochs_of(r), std::vector<double>{});
}

TEST(SupervisorTest, WeightsOnlyResumeRollsBackToStepZero) {
  TrainConfig c = supervised_config();
  c.resume = true;
  c.checkpoint_path = checkpoint_at("weights_only.ckpt", 2.0, false);
  TrainResult r;
  Supervisor sup(c, r);
  EXPECT_TRUE(sup.have_checkpoint());
  sup.recover({failure(0, 5)});
  EXPECT_EQ(r.recovered_from_epoch, 0.0);
  EXPECT_EQ(r.failed_steps, 5);
}

TEST(SupervisorTest, RethrowsOnceRestartsAreUsedUp) {
  TrainConfig c = supervised_config();
  c.max_restarts = 1;
  TrainResult r;
  Supervisor sup(c, r);
  EXPECT_EQ(sup.recover({failure(2, 3)}), RecoveryOutcome::kRolledBack);
  EXPECT_THROW(sup.recover({failure(2, 5)}), dist::ReplicaFailure);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.failed_steps, 3);  // the fatal failure is not counted

  c.max_restarts = 0;
  TrainResult r0;
  Supervisor no_retries(c, r0);
  EXPECT_THROW(no_retries.recover({failure(0, 1)}), dist::ReplicaFailure);
  EXPECT_EQ(r0.restarts, 0);
}

TEST(SupervisorTest, RethrowsErrorsThatAreNotReplicaFailures) {
  const TrainConfig c = supervised_config();
  TrainResult r = result_with_evals({1.0});
  Supervisor sup(c, r);
  EXPECT_THROW(
      sup.recover({aborted(),
                   std::make_exception_ptr(std::runtime_error("bad file"))}),
      std::runtime_error);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.last_recovery, RecoveryOutcome::kNone);
  EXPECT_EQ(r.history.size(), 1u);
}

TEST(SupervisorTest, ResizesAroundTheUnionOfDeclaredDeaths) {
  TrainConfig c = supervised_config();
  c.elastic = true;
  TrainResult r = result_with_evals({1.0, 2.0});
  Supervisor sup(c, r);
  sup.checkpoint_written(1.0);  // step 8

  // Waiters disagree on who is dead; the union is {1, 3}. The dying rank
  // reports its own death, and the latest step seen counts.
  const RecoveryOutcome out = sup.recover(
      {declared_dead({1}, 12),
       std::make_exception_ptr(dist::PermanentRankDeath(1, 12)),
       declared_dead({1, 3}, -1), aborted()});

  EXPECT_EQ(out, RecoveryOutcome::kWorldResized);
  EXPECT_EQ(r.last_recovery, RecoveryOutcome::kWorldResized);
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 2}));
  EXPECT_EQ(sup.world_size(), 2);
  EXPECT_EQ(sup.blob_rank(0), 0);
  EXPECT_EQ(sup.blob_rank(1), 2);
  EXPECT_EQ(sup.generation(), 1u);
  EXPECT_EQ(r.resizes, 1);
  EXPECT_EQ(r.restarts, 0);  // a resize is not a restart
  EXPECT_EQ(r.final_world_size, 2);
  EXPECT_EQ(r.failed_steps, 4);  // steps 8..11 of the old world
  EXPECT_EQ(r.recovered_from_epoch, 1.0);
  EXPECT_EQ(epochs_of(r), (std::vector<double>{1.0}));
  ASSERT_EQ(r.resize_events.size(), 1u);
  EXPECT_EQ(r.resize_events[0].dead_ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(r.resize_events[0].epoch, 1.0);
  EXPECT_EQ(r.resize_events[0].world_size_after, 2);
  EXPECT_EQ(r.resize_events[0].global_batch_after, 32);
}

TEST(SupervisorTest, BlobRanksComposeAcrossResizesUntilTheNextCheckpoint) {
  TrainConfig c = supervised_config();
  c.elastic = true;
  TrainResult r;
  Supervisor sup(c, r);
  sup.checkpoint_written(1.0);

  sup.recover({declared_dead({1}, 10)});
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 2, 3}));
  // No checkpoint since: local ranks 1 and 2 still resume from the blobs
  // original ranks 2 and 3 wrote.
  sup.recover({declared_dead({3}, -1)});
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 2}));
  EXPECT_EQ(sup.blob_rank(1), 2);
  EXPECT_EQ(sup.generation(), 2u);
  EXPECT_EQ(r.resize_events.size(), 2u);

  // A checkpoint written by the shrunken world is indexed by local rank.
  sup.checkpoint_written(2.0);
  EXPECT_EQ(sup.blob_rank(1), 1);
  // Lost work counts in the failed world's numbering: 512 / (2 x 16) = 16
  // steps per epoch, so epoch 2 is step 32.
  const std::int64_t failed_before = r.failed_steps;
  sup.recover({declared_dead({2}, 40)});
  EXPECT_EQ(r.failed_steps - failed_before, 8);
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0}));
  EXPECT_EQ(sup.blob_rank(0), 0);
}

TEST(SupervisorTest, RethrowsBelowQuorum) {
  TrainConfig c = supervised_config();
  c.elastic = true;
  c.min_ranks = 4;
  TrainResult r;
  Supervisor sup(c, r);
  EXPECT_THROW(sup.recover({declared_dead({3}, 2)}),
               dist::WorldResizeRequired);
  // The world is left as it was.
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.resizes, 0);
  EXPECT_TRUE(r.resize_events.empty());
}

TEST(SupervisorTest, RethrowsADeathWithElasticOff) {
  const TrainConfig c = supervised_config();  // elastic off, one restart
  TrainResult r;
  Supervisor sup(c, r);
  EXPECT_THROW(sup.recover({declared_dead({2}, 6), aborted()}),
               dist::WorldResizeRequired);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(sup.survivors(), (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace podnet::core

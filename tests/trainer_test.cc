#include "core/trainer.h"

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "effnet/model.h"

#include <cmath>

namespace podnet::core {
namespace {

TrainConfig base_config() {
  TrainConfig c;
  c.spec = effnet::pico();
  c.spec.dropout = 0.f;        // keep CI runs deterministic-ish and fast
  c.spec.drop_connect = 0.f;
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
  c.epochs = 6.0;
  c.eval_every_epochs = 1.0;
  c.seed = 7;
  return c;
}

TEST(TrainerTest, LearnsTinyTaskWellAboveChance) {
  TrainConfig c = base_config();
  const TrainResult r = train(c);
  EXPECT_EQ(r.total_steps, 6 * (512 / 64));
  EXPECT_EQ(r.global_batch, 64);
  EXPECT_EQ(r.history.size(), 6u);
  EXPECT_GT(r.peak_accuracy, 0.4);  // chance is 0.125
  EXPECT_GT(r.history.back().train_accuracy, 0.4);
  EXPECT_LT(r.final_train_loss, r.history.front().train_loss);
}

TEST(TrainerTest, ReplicasStayBitIdentical) {
  TrainConfig c = base_config();
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.epochs = 3.0;
  c.check_consistency = true;  // throws on any divergence
  EXPECT_NO_THROW(train(c));
}

TEST(TrainerTest, ReplicaCountInvariance) {
  // Same global batch, same BN batch (full-group sync), no dropout: one
  // replica of 32 must match two replicas of 16 closely (up to float
  // summation order in the collectives).
  TrainConfig c1 = base_config();
  c1.replicas = 1;
  c1.per_replica_batch = 32;
  c1.epochs = 2.0;

  TrainConfig c2 = c1;
  c2.replicas = 2;
  c2.per_replica_batch = 16;
  c2.bn.kind = BnGroupingConfig::Kind::k1d;
  c2.bn.group_size = 2;  // BN over the full global batch, like c1

  const TrainResult r1 = train(c1);
  const TrainResult r2 = train(c2);
  EXPECT_NEAR(r1.final_train_loss, r2.final_train_loss,
              0.05 * r1.final_train_loss + 0.02);
  EXPECT_NEAR(r1.peak_accuracy, r2.peak_accuracy, 0.15);
}

TEST(TrainerTest, SameSeedReproducesRun) {
  TrainConfig c = base_config();
  c.epochs = 2.0;
  const TrainResult a = train(c);
  const TrainResult b = train(c);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.peak_accuracy, b.peak_accuracy);
}

TEST(TrainerTest, EvalCadenceControlsHistoryLength) {
  TrainConfig c = base_config();
  c.epochs = 4.0;
  c.eval_every_epochs = 2.0;
  const TrainResult r = train(c);
  EXPECT_EQ(r.history.size(), 2u);
  EXPECT_NEAR(r.history[0].epoch, 2.0, 1e-9);
  EXPECT_NEAR(r.history[1].epoch, 4.0, 1e-9);
}

TEST(TrainerTest, DistributedBnGroupingRuns) {
  TrainConfig c = base_config();
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.epochs = 2.0;
  c.bn.kind = BnGroupingConfig::Kind::k2d;
  c.bn.grid_cols = 2;
  c.bn.tile_rows = 1;
  c.bn.tile_cols = 2;
  const TrainResult r = train(c);
  EXPECT_GT(r.peak_accuracy, 0.1);
}

TEST(TrainerTest, AllReduceAlgorithmsAgree) {
  // Flat / ring / halving-doubling produce (nearly) the same training
  // trajectory; they differ only in float reduction order.
  TrainConfig c = base_config();
  c.epochs = 2.0;
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.allreduce = dist::AllReduceAlgorithm::kFlat;
  const TrainResult flat = train(c);
  c.allreduce = dist::AllReduceAlgorithm::kRing;
  const TrainResult ring = train(c);
  c.allreduce = dist::AllReduceAlgorithm::kHalvingDoubling;
  const TrainResult hd = train(c);
  EXPECT_NEAR(flat.final_train_loss, ring.final_train_loss, 0.05);
  EXPECT_NEAR(flat.final_train_loss, hd.final_train_loss, 0.05);
}

TEST(TrainerTest, OverlapOffIsBitExactSerialPath) {
  // overlap=false must take the historical single-buffer blocking path:
  // bucket_bytes (and the whole overlap machinery) must have zero effect
  // on the trajectory — two runs differing only in bucket_bytes with
  // overlap off are bitwise identical.
  TrainConfig c = base_config();
  c.epochs = 2.0;
  c.overlap = false;
  c.bucket_bytes = 4u << 20;
  const TrainResult a = train(c);
  c.bucket_bytes = 64;  // would change the partition if it were consulted
  const TrainResult b = train(c);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.peak_accuracy, b.peak_accuracy);
  EXPECT_EQ(a.history.back().train_loss, b.history.back().train_loss);
  // Serially, the exposed wait IS the all-reduce phase.
  EXPECT_DOUBLE_EQ(a.phase_totals.exposed_allreduce_fraction(),
                   a.phase_totals.allreduce_fraction());
}

TEST(TrainerTest, OverlapRunIsDeterministicAndConsistent) {
  // The bucketed path keeps both training invariants: replicas stay
  // bit-identical every step (deterministic backward-driven submission
  // order), and the same seed reproduces the run bitwise.
  TrainConfig c = base_config();
  c.epochs = 2.0;
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.overlap = true;
  c.bucket_bytes = 16u << 10;  // several buckets at pico scale
  c.check_consistency = true;
  const TrainResult a = train(c);
  const TrainResult b = train(c);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.peak_accuracy, b.peak_accuracy);
  EXPECT_GE(a.phase_totals.exposed_allreduce_fraction(), 0.0);
  EXPECT_LT(a.phase_totals.exposed_allreduce_fraction(), 1.0);
}

TEST(TrainerTest, OverlapTrainsEquivalentlyToSerial) {
  // Same partition, same per-bucket reductions — the overlapped trajectory
  // may differ from the serial one only through the bucket split of the
  // float reduction order, so losses land within the same tolerance the
  // all-reduce algorithms grant each other.
  TrainConfig c = base_config();
  c.epochs = 2.0;
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.bucket_bytes = 16u << 10;
  c.overlap = false;
  const TrainResult serial = train(c);
  c.overlap = true;
  const TrainResult overlapped = train(c);
  EXPECT_NEAR(serial.final_train_loss, overlapped.final_train_loss, 0.05);
  EXPECT_NEAR(serial.peak_accuracy, overlapped.peak_accuracy, 0.15);
}

TEST(TrainerTest, OverlapWorksUnderCollectiveVerification) {
  // The per-bucket sequence tags must let the verifier accept an overlap
  // run (comm-thread collectives interleaved with main-channel ones) and
  // with every algorithm the trainer offers, including the two-level ring.
  TrainConfig c = base_config();
  c.epochs = 1.0;
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.overlap = true;
  c.bucket_bytes = 16u << 10;
  c.verify_collectives = true;
  c.allreduce = dist::AllReduceAlgorithm::kTwoLevelRing;
  EXPECT_NO_THROW(train(c));
}

TEST(TrainerTest, BnSyncTimeIsBilledOnceToItsOwnStep) {
  // BN group reductions run inside both forward and backward. Each step's
  // bn_sync must hold exactly its own reductions, taken out of forward and
  // backward: the in-step phases then tile the step without overlap, and
  // forward keeps its compute instead of absorbing the previous step's
  // backward reductions.
  TrainConfig c = base_config();
  c.epochs = 1.0;
  c.replicas = 4;
  c.per_replica_batch = 4;
  c.bn.kind = BnGroupingConfig::Kind::k1d;
  c.bn.group_size = 2;
  for (bool overlap : {false, true}) {
    c.overlap = overlap;
    const obs::PhaseTotals t = train(c).phase_totals;
    double in_step = 0;
    for (obs::Phase p :
         {obs::Phase::kDataLoad, obs::Phase::kForward, obs::Phase::kBnSync,
          obs::Phase::kBackward, obs::Phase::kGradPack,
          obs::Phase::kAllReduceExposed, obs::Phase::kOptimizer}) {
      in_step += t.phase(p);
    }
    EXPECT_LE(in_step, t.step_seconds + 1e-6) << "overlap=" << overlap;
    EXPECT_GT(t.phase(obs::Phase::kForward), 0.0) << "overlap=" << overlap;
    EXPECT_GT(t.phase(obs::Phase::kBnSync), 0.0) << "overlap=" << overlap;
  }
}

TEST(TrainerTest, RejectsOversizedGlobalBatch) {
  TrainConfig c = base_config();
  c.per_replica_batch = 1024;  // 2048 global > 512 train images
  EXPECT_THROW(train(c), std::invalid_argument);
}

TEST(TrainerTest, RmsPropBaselineAlsoLearns) {
  TrainConfig c = base_config();
  c.optimizer.kind = optim::OptimizerKind::kRmsProp;
  c.lr_per_256 = 0.25f;
  c.schedule.decay = optim::DecayKind::kExponential;
  c.schedule.warmup_epochs = 1.0;
  const TrainResult r = train(c);
  EXPECT_GT(r.peak_accuracy, 0.3);
}

TEST(TrainerTest, EmaEvaluationWorks) {
  TrainConfig c = base_config();
  c.ema_decay = 0.9f;
  const TrainResult r = train(c);
  EXPECT_GT(r.peak_accuracy, 0.35);  // EMA weights must also learn the task
  // EMA must not corrupt the training trajectory: the live-weight loss
  // keeps decreasing.
  EXPECT_LT(r.final_train_loss, r.history.front().train_loss);
}

TEST(TrainerTest, GradientClippingStillLearns) {
  TrainConfig c = base_config();
  c.clip_global_norm = 1.0f;
  const TrainResult r = train(c);
  EXPECT_GT(r.peak_accuracy, 0.3);
  EXPECT_TRUE(std::isfinite(r.final_train_loss));
}

TEST(TrainerTest, WritesCheckpointAtEnd) {
  TrainConfig c = base_config();
  c.epochs = 2.0;
  c.checkpoint_path = std::string(::testing::TempDir()) + "/trainer.ckpt";
  const TrainResult r = train(c);
  (void)r;
  // Load it back into a fresh model: names/shapes must line up.
  effnet::ModelSpec spec = c.spec;
  spec.resolution = c.dataset.resolution;
  effnet::ModelOptions mopts;
  mopts.num_classes = c.dataset.num_classes;
  effnet::EfficientNet model(spec, mopts);
  auto params = nn::parameters_of(model);
  std::vector<nn::Tensor*> state;
  model.collect_state(state);
  const CheckpointMeta meta = load_checkpoint(c.checkpoint_path, params,
                                              state);
  EXPECT_EQ(meta.step, r.total_steps);
}

TEST(TrainerTest, AugmentedPipelineTrains) {
  TrainConfig c = base_config();
  c.dataset.augment.random_crop = true;
  c.dataset.augment.brightness = 0.1f;
  c.dataset.augment.cutout = 3;
  c.epochs = 4.0;
  const TrainResult r = train(c);
  EXPECT_GT(r.peak_accuracy, 0.2);  // harder task, still learnable
}

TEST(TrainerTest, TwoLevelAllReduceTrains) {
  TrainConfig c = base_config();
  c.replicas = 4;
  c.per_replica_batch = 16;
  c.epochs = 2.0;
  c.allreduce = dist::AllReduceAlgorithm::kTwoLevel;
  c.check_consistency = true;
  EXPECT_NO_THROW(train(c));
}

TEST(TrainerTest, PrefetchMatchesDirectLoading) {
  TrainConfig c = base_config();
  c.epochs = 2.0;
  const TrainResult direct = train(c);
  c.prefetch = true;
  const TrainResult prefetched = train(c);
  EXPECT_EQ(direct.final_train_loss, prefetched.final_train_loss);
  EXPECT_EQ(direct.peak_accuracy, prefetched.peak_accuracy);
}

TEST(TrainerTest, ResumeFromCheckpointContinuesImproving) {
  const std::string path =
      std::string(::testing::TempDir()) + "/resume.ckpt";
  TrainConfig c = base_config();
  c.epochs = 3.0;
  c.checkpoint_path = path;
  const TrainResult first = train(c);

  TrainConfig c2 = base_config();
  c2.epochs = 3.0;
  c2.init_checkpoint_path = path;
  c2.schedule.warmup_epochs = 0.0;  // warm start: no warm-up needed
  const TrainResult second = train(c2);
  // The warm-started run begins roughly where the first ended and improves
  // on (or at least holds) its accuracy.
  EXPECT_LT(second.history.front().train_loss,
            first.history.front().train_loss);
  EXPECT_GE(second.peak_accuracy, first.peak_accuracy - 0.1);
}

TEST(TrainerTest, WallClockAndPeakTracked) {
  TrainConfig c = base_config();
  c.epochs = 2.0;
  const TrainResult r = train(c);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GE(r.wall_seconds, r.seconds_to_peak);
  EXPECT_GT(r.peak_epoch, 0.0);
  EXPECT_LE(r.peak_epoch, 2.0);
}

}  // namespace
}  // namespace podnet::core

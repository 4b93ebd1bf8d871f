// The benchmark's workloads. Each pins every TrainConfig field it depends
// on; only the seed comes from the command line, and it selects the
// synthetic dataset, the data order and the model initialization. Why each
// workload exists is in README.md.
#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "effnet/config.h"

namespace e2ebench {
namespace {

// The paper's LARS recipe (Table 2 rows 4-6): LARS, linear LR scaling,
// warm-up then polynomial decay over the run.
void lars_recipe(core::TrainConfig& c, float lr_per_256, double warmup) {
  c.optimizer = optim::OptimizerConfig{};
  c.optimizer.kind = optim::OptimizerKind::kLars;
  c.lr_per_256 = lr_per_256;
  c.schedule = optim::LrScheduleConfig{};
  c.schedule.decay = optim::DecayKind::kPolynomial;
  c.schedule.warmup_epochs = warmup;
}

// Fields every workload pins to the same value, so a changed library
// default cannot silently change a workload.
core::TrainConfig base_config(std::uint64_t seed) {
  core::TrainConfig c;
  c.dataset = data::DatasetConfig{};
  c.dataset.seed = seed;
  c.seed = seed;
  c.label_smoothing = 0.1f;
  c.precision = tensor::MatmulPrecision::kFp32;
  c.ir_eval = false;
  c.overlap = false;
  c.prefetch = false;
  c.ema_decay = 0.f;
  c.clip_global_norm = 0.f;
  c.allreduce = dist::AllReduceAlgorithm::kRing;
  c.bn = core::BnGroupingConfig{};
  c.check_consistency = false;
  c.verbose = false;
  return c;
}

// An easy synthetic task (low instance noise) so that every seed
// converges within the run: quality metrics then differ little across
// seeds and time to target is set by speed, not by luck.
void easy_task(core::TrainConfig& c, data::Index classes, data::Index train,
               data::Index eval, data::Index resolution, float noise) {
  c.dataset.num_classes = classes;
  c.dataset.train_size = train;
  c.dataset.eval_size = eval;
  c.dataset.resolution = resolution;
  c.dataset.noise = noise;
}

// Communication-heavy: tiny per-replica batches, distributed BN, a
// hierarchical all-reduce, per-epoch checkpoints and one rank failure
// before the target is reached, so time to target includes the recovery.
core::TrainConfig sync_pico4(std::uint64_t seed, const std::string& scratch) {
  core::TrainConfig c = base_config(seed);
  c.spec = effnet::pico();
  easy_task(c, 8, 512, 512, 16, 0.2f);
  c.replicas = 4;
  c.per_replica_batch = 4;
  c.bn.kind = core::BnGroupingConfig::Kind::k1d;
  c.bn.group_size = 2;
  c.allreduce = dist::AllReduceAlgorithm::kTwoLevelRing;
  lars_recipe(c, 6.0f, 1.0);
  c.epochs = 12.0;
  c.eval_every_epochs = 2.0;
  c.checkpoint_path = scratch + "/sync_pico4.ckpt";
  c.checkpoint_every_epochs = 1.0;
  c.max_restarts = 1;
  c.restart_backoff_ms = 0.0;
  // Mid-epoch: the rollback to the epoch-2 checkpoint replays half an epoch.
  const std::int64_t steps_per_epoch =
      c.dataset.train_size / (c.per_replica_batch * c.replicas);
  dist::FaultSpec f;
  f.kind = dist::FaultKind::kRankFailure;
  f.rank = 1;
  f.step = 2 * steps_per_epoch + steps_per_epoch / 2;
  c.faults.faults = {f};
  return c;
}

// Eval-dominated: a trained model is fine-tuned on a small train split
// and scored every half epoch on a large eval split through the compiled
// graph IR with the default pass set.
core::TrainConfig eval_ir(std::uint64_t seed, const std::string& scratch) {
  core::TrainConfig c = base_config(seed);
  c.spec = effnet::nano();
  easy_task(c, 8, 256, 2048, 32, 0.1f);
  c.replicas = 4;
  c.per_replica_batch = 8;
  lars_recipe(c, 0.1f, 0.5);
  c.epochs = 2.0;
  c.eval_every_epochs = 0.5;
  c.ir_eval = true;
  c.init_checkpoint_path = scratch + "/eval_ir_init.ckpt";
  return c;
}

// Trains eval_ir's model to convergence on the same task (a larger train
// split of the same dataset) and writes the checkpoint eval_ir starts from.
core::TrainConfig eval_ir_pretrain(std::uint64_t seed,
                                   const std::string& scratch) {
  core::TrainConfig c = eval_ir(seed, scratch);
  c.init_checkpoint_path.clear();
  c.checkpoint_path = scratch + "/eval_ir_init.ckpt";
  c.dataset.train_size = 1024;
  lars_recipe(c, 6.0f, 1.0);
  c.epochs = 5.0;
  c.eval_every_epochs = 5.0;
  c.ir_eval = false;
  return c;
}

const Workload kWorkloads[] = {
    {"sync_pico4", 1, 0.8, 0.85, 8, sync_pico4, nullptr},
    {"eval_ir", 1, 0.5, 0.9, 3, eval_ir, eval_ir_pretrain},
};

}  // namespace

void prepare_seed(const Workload& w, std::uint64_t seed,
                  const std::string& scratch) {
  if (w.pretrain == nullptr) return;
  const ObservedRun run = observed_train(w.pretrain(seed, scratch));
  double first_loss = NAN;
  for (const StepRecord& r : run.records) {
    if (r.rank == 0) {
      first_loss = r.loss;
      break;
    }
  }
  std::ofstream(scratch + "/first_loss.txt") << std::setprecision(17)
                                             << first_loss << "\n";
}

double prepared_first_loss(const Workload& w, const std::string& scratch) {
  if (w.pretrain == nullptr) return NAN;
  std::ifstream f(scratch + "/first_loss.txt");
  double loss = NAN;
  if (!(f >> loss)) {
    throw std::runtime_error("no preparation in " + scratch +
                             "; run with --prepare first");
  }
  return loss;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace e2ebench

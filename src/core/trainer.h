// Trainer: the distributed training-and-evaluation loop (Kumar et al.),
// executed SPMD across simulated TPU cores (threads).
//
// Every optimization from the paper is a switch on TrainConfig:
//   * optimizer        — RMSProp baseline vs LARS (Sec 3.1), SM3 (Sec 5)
//   * lr schedule      — linear scaling + warm-up + exp/poly decay (Sec 3.2)
//   * distributed eval — the eval split is sharded across all replicas and
//     metric sums are all-reduced; no dedicated evaluator (Sec 3.3)
//   * distributed BN   — 1-D or 2-D-tiled replica groups (Sec 3.4)
//   * precision        — bf16 convolution multiplicands (Sec 3.5)
//
// Invariant: replica weights stay bit-identical across the whole run (same
// init seed, identical all-reduced gradients, deterministic optimizer);
// `check_consistency` makes the trainer assert it every epoch.
//
// Fault tolerance: train() is a loop of attempts. Rank 0 periodically
// writes full-state checkpoints, and after a failed attempt
// core::Supervisor (core/supervisor.h) decides whether to roll back,
// shrink the world or give up. Resumed runs are bit-exact: the recovered
// run produces the same final weights as an uninterrupted run with the
// same seed (tests assert it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "dist/communicator.h"
#include "dist/fault.h"
#include "effnet/config.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"

namespace podnet::core {

// Default for TrainConfig::ir_eval: the PODNET_IR environment variable
// ("0" or unset disables, anything else enables).
bool ir_eval_default();

struct BnGroupingConfig {
  enum class Kind { kLocal, k1d, k2d };
  Kind kind = Kind::kLocal;
  int group_size = 1;   // 1-D: replicas per group
  int grid_cols = 1;    // 2-D: logical grid width...
  int tile_rows = 1;    // ...and tile shape
  int tile_cols = 1;
};

struct TrainConfig {
  effnet::ModelSpec spec = effnet::pico();
  // Optional custom model (e.g. the src/resnet baseline). When set it
  // overrides `spec`; called once per replica. The factory must produce
  // models whose weights depend only on its own seeding, identically
  // across replicas (see effnet::ModelOptions for the pattern).
  std::function<std::unique_ptr<nn::Model>(int replica_id)> model_factory;
  data::DatasetConfig dataset;
  int replicas = 4;
  tensor::Index per_replica_batch = 64;

  optim::OptimizerConfig optimizer;
  // The paper's Table-2 LR column: rate per 256 examples; the trainer
  // applies the linear scaling rule against the global batch.
  float lr_per_256 = 0.016f;
  optim::LrScheduleConfig schedule;  // base_lr is overwritten by scaling

  double epochs = 12.0;
  double eval_every_epochs = 1.0;
  float label_smoothing = 0.1f;

  BnGroupingConfig bn;
  dist::AllReduceAlgorithm allreduce = dist::AllReduceAlgorithm::kRing;
  tensor::MatmulPrecision precision = tensor::MatmulPrecision::kFp32;

  // ---- Graph-IR evaluation (DESIGN.md "Graph IR & passes") -----------------
  // Route the sharded eval forward pass through the compiled graph IR:
  // the model is lowered to an ir::Program, optimized (conv+BN folding,
  // epilogue fusion, DCE + arena planning), and executed against one
  // planned scratch arena. The per-layer interpreter scratch is released
  // for the duration. Training always keeps the layer interpreter. Falls
  // back to the interpreter when the model does not lower (bf16
  // multiplicands, custom layers). Defaults to the PODNET_IR environment
  // variable; see ir_eval_default().
  bool ir_eval = ir_eval_default();

  // ---- Bucketed all-reduce overlap (DESIGN.md "Bucketed overlap") ----------
  // Hide gradient communication behind backward: the flat gradient buffer
  // is split into param-aligned buckets of ~bucket_bytes each, and as the
  // model's backward pass finishes a stage, its filled buckets are packed
  // and handed to a per-rank communication thread that all-reduces them on
  // the Communicator's dedicated bucket channel while backward continues.
  // The step joins before unpack_grads. Given the same bucket partition
  // the result is bitwise identical to reducing the buckets serially;
  // overlap=false is bit-exact to the historical single-buffer path.
  bool overlap = false;
  std::size_t bucket_bytes = 4u << 20;  // ~4 MiB buckets (0 = per-param)

  // Exponential moving average of weights for evaluation (the TPU
  // reference evaluates EMA weights; 0 disables). With EMA on, eval and
  // peak accuracy are measured on the averaged weights.
  float ema_decay = 0.f;
  // Global-norm gradient clipping applied to the all-reduced gradients
  // (0 disables).
  float clip_global_norm = 0.f;
  // When non-empty, rank 0 writes a checkpoint (weights + BN statistics)
  // here at the end of training.
  std::string checkpoint_path;
  // When non-empty, every replica loads these weights before training
  // (fine-tuning / resume; optimizer slots start fresh).
  std::string init_checkpoint_path;

  // Overlap batch synthesis with compute via a per-replica background
  // prefetch thread (the host-side infeed pipeline).
  bool prefetch = false;

  // ---- Fault tolerance (DESIGN.md "Fault tolerance") -----------------------
  // Cadence (in epochs) of full-state checkpoints written by rank 0 to
  // checkpoint_path during training; 0 disables. These carry optimizer
  // slots, EMA, and per-replica RNG/accumulator state, so a resumed run
  // continues bit-exactly. Requires checkpoint_path.
  double checkpoint_every_epochs = 0.0;
  // Resume from checkpoint_path before training. A full-state checkpoint
  // resumes mid-run bit-exactly; a weights-only checkpoint (e.g. the final
  // one a finished run writes) degrades to a warm start from step 0.
  bool resume = false;
  // Cross-check a hash of the all-reduced gradient bucket across ranks
  // every step; a mismatch (corrupted collective) raises a recoverable
  // ReplicaFailure on every rank.
  bool verify_collectives = false;
  // On a recoverable replica fault, roll back to the last good checkpoint
  // (or to step 0 if none exists yet) and relaunch, at most this many
  // times; 0 means any fault fails the run.
  int max_restarts = 0;
  // Pause before the first relaunch, doubled on each further restart
  // (0 disables).
  double restart_backoff_ms = 0.0;
  // Scripted faults for exercising the recovery path (tests/benches);
  // empty means no injection. Each fault fires at most once per train()
  // call, so replayed steps after a rollback do not re-fire it.
  dist::FaultPlan faults;

  // ---- Elastic recovery (DESIGN.md "Elastic recovery") ---------------------
  // Survive *permanent* rank loss by shrinking the world: when deadline-
  // based hang detection declares ranks dead (dist::WorldResizeRequired),
  // the supervisor rebuilds the communicator over the survivors with a
  // compacted rank map, re-shards the dataset, rescales the LR via the
  // linear scaling rule (global batch shrank), and resumes from the last
  // full-state checkpoint. Off: a declared death fails the run.
  bool elastic = false;
  // Quorum: fewer survivors than this aborts the run instead of resizing.
  int min_ranks = 1;
  // Deadline policy for collective waits (hang detection). Disabled by
  // default — collectives then block indefinitely, the legacy behavior.
  // Required (enabled) for FaultKind::kPermanentKill plans.
  dist::DeadlinePolicy collective_deadline;

  // ---- Step-level observability (src/obs) ----------------------------------
  // When set, every replica emits one obs::StepMetrics record per training
  // step (tagged with its rank): per-phase wall times, counters, and — in
  // PODNET_PROFILE builds — per-kernel span rollups. A null sink keeps the
  // hot path free of formatting work; phase timing itself is always on and
  // lands in TrainResult::phase_totals.
  std::shared_ptr<obs::MetricsSink> metrics_sink;

  std::uint64_t seed = 42;
  bool check_consistency = false;
  bool verbose = false;
};

// How the supervised loop last recovered from a fault. The values are
// the recovery_event codes of obs::StepMetrics.
enum class RecoveryOutcome {
  kNone = 0,          // no recovery happened
  kRolledBack = 1,    // checkpoint rollback + relaunch at the same world size
  kWorldResized = 2,  // elastic: relaunched with a shrunken world
};

// One elastic world shrink, as observed by the supervisor.
struct WorldResizeEvent {
  double epoch = 0;               // epoch the survivors resumed from
  std::vector<int> dead_ranks;    // original rank ids declared dead
  int world_size_after = 0;
  std::int64_t global_batch_after = 0;
};

struct EvalPoint {
  double epoch = 0;
  double eval_accuracy = 0;       // top-1
  double eval_top5_accuracy = 0;  // top-5 (1.0 when classes <= 5)
  double train_accuracy = 0;  // running top-1 on training batches
  double train_loss = 0;
  float lr = 0;
  double wall_seconds = 0;  // since training started
};

struct TrainResult {
  std::vector<EvalPoint> history;
  // Derived from history: the best eval point and the last train loss.
  double peak_accuracy = 0;
  double peak_epoch = 0;
  double seconds_to_peak = 0;
  double final_train_loss = 0;
  std::int64_t total_steps = 0;
  double wall_seconds = 0;
  std::int64_t global_batch = 0;
  std::string model_name;
  // Rank 0's run-level rollup of per-step phase times and counters (from
  // the final successful attempt; steps lost to faults are not included).
  // Its allreduce_fraction() is the measured counterpart of Table 1's
  // all-reduce column, exposed_allreduce_fraction() the share the step
  // actually waited on, and allreduce_bytes the float payload rank 0
  // pushed through Communicator::allreduce_sum (gradient buckets, plus BN
  // statistics averaged at eval points; BN *group* reductions use their
  // own communicators and are not counted).
  obs::PhaseTotals phase_totals;
  // Planned peak arena bytes of the compiled eval program (rank 0's last
  // eval; 0 when ir_eval is off or the model did not lower). Compare with
  // the interpreter's per-layer im2col scratch high-water mark.
  std::int64_t ir_scratch_bytes = 0;
  // ---- Fault-tolerance outcome ---------------------------------------------
  int restarts = 0;                  // supervised relaunches performed
  std::int64_t failed_steps = 0;     // steps lost to faults and replayed
  double recovered_from_epoch = -1;  // last rollback point (-1: no restart)
  // ---- Elastic recovery outcome --------------------------------------------
  int resizes = 0;                   // elastic world shrinks performed
  int final_world_size = 0;          // replicas in the world that finished
  RecoveryOutcome last_recovery = RecoveryOutcome::kNone;
  std::vector<WorldResizeEvent> resize_events;  // in occurrence order
};

// Runs the full distributed train-and-eval loop and blocks until done.
TrainResult train(const TrainConfig& config);

// One-line summary for logs and benches.
std::string summarize(const TrainConfig& config, const TrainResult& result);

}  // namespace podnet::core

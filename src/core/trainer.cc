#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "check/check.h"
#include "core/checkpoint.h"
#include "core/flat_params.h"
#include "core/supervisor.h"
#include "data/loader.h"
#include "data/prefetcher.h"
#include "dist/bn_sync.h"
#include "dist/comm_thread.h"
#include "dist/replica.h"
#include "effnet/model.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "nn/loss.h"
#include "nn/lower.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "optim/clip.h"
#include "optim/ema.h"
#include "optim/state_io.h"

namespace podnet::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

dist::BnGroups make_groups(const BnGroupingConfig& bn, int replicas) {
  switch (bn.kind) {
    case BnGroupingConfig::Kind::kLocal:
      return {};
    case BnGroupingConfig::Kind::k1d:
      return dist::make_bn_groups_1d(replicas, bn.group_size);
    case BnGroupingConfig::Kind::k2d:
      return dist::make_bn_groups_2d(replicas, bn.grid_cols, bn.tile_rows,
                                     bn.tile_cols);
  }
  return {};
}

// Advances an eval or checkpoint cadence past `epoch` by repeated
// addition, never multiplication, so a resumed run lands on exactly the
// same event epochs as an uninterrupted one. `every` <= 0 disables it.
double next_after(double next, double every, double epoch) {
  if (every <= 0) return next;
  while (next <= epoch + 1e-9) next += every;
  return next;
}

// Equivalence gate for the compiled graph-IR eval path (instrumented
// builds): the compiled logits must agree with the layer interpreter.
// Conv+BN folding reassociates the per-channel scale through the conv
// accumulation and fused epilogues round at SIMD segment boundaries, so
// agreement is to a tight relative tolerance, not bitwise (the ir parity
// tests bound the per-op ULP error; this catches wiring mistakes).
void assert_ir_matches(const nn::Tensor& got, const nn::Tensor& want) {
  if (got.shape() != want.shape()) {
    throw std::runtime_error("graph-IR eval produced the wrong logits shape");
  }
  const float* g = got.data();
  const float* w = want.data();
  for (tensor::Index i = 0; i < got.numel(); ++i) {
    const float diff = std::fabs(g[i] - w[i]);
    const float tol = 1e-3f + 1e-3f * std::fabs(w[i]);
    if (!(diff <= tol)) {
      throw std::runtime_error(
          "graph-IR eval diverged from the layer interpreter at logit " +
          std::to_string(i) + ": " + std::to_string(g[i]) + " vs " +
          std::to_string(w[i]));
    }
  }
}

// FNV-1a over the payload bytes, folded to 53 bits so the value survives a
// double-based all-reduce exactly. Any cross-rank bit difference in the
// reduced gradients changes the hash with overwhelming probability.
double payload_hash(std::span<const float> v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return static_cast<double>(h & ((1ull << 53) - 1));
}

// Serializes the thread-confined part of one replica's training state:
// RNG streams (dropout / stochastic depth), batch-norm running statistics
// (per-replica between eval points), and the running metric accumulators.
void save_replica_state(optim::StateWriter& w,
                        const std::vector<nn::Rng*>& rngs,
                        const std::vector<nn::Tensor*>& bn_state,
                        double loss_sum, std::int64_t loss_steps,
                        std::int64_t train_correct, std::int64_t train_seen) {
  w.put_u64(rngs.size());
  for (const nn::Rng* g : rngs) {
    for (std::uint64_t word : g->save_state()) w.put_u64(word);
  }
  w.put_u64(bn_state.size());
  for (const nn::Tensor* t : bn_state) {
    w.put_floats(std::span<const float>(
        t->data(), static_cast<std::size_t>(t->numel())));
  }
  w.put_f64(loss_sum);
  w.put_i64(loss_steps);
  w.put_i64(train_correct);
  w.put_i64(train_seen);
}

void load_replica_state(optim::StateReader& r,
                        const std::vector<nn::Rng*>& rngs,
                        const std::vector<nn::Tensor*>& bn_state,
                        double& loss_sum, std::int64_t& loss_steps,
                        std::int64_t& train_correct,
                        std::int64_t& train_seen) {
  if (r.get_u64() != rngs.size()) {
    throw std::runtime_error("checkpoint: RNG stream count mismatch");
  }
  for (nn::Rng* g : rngs) {
    std::array<std::uint64_t, nn::Rng::kStateWords> st{};
    for (std::uint64_t& word : st) word = r.get_u64();
    g->load_state(st);
  }
  if (r.get_u64() != bn_state.size()) {
    throw std::runtime_error("checkpoint: BN state count mismatch");
  }
  for (nn::Tensor* t : bn_state) {
    r.get_floats(
        std::span<float>(t->data(), static_cast<std::size_t>(t->numel())));
  }
  loss_sum = r.get_f64();
  loss_steps = r.get_i64();
  train_correct = r.get_i64();
  train_seen = r.get_i64();
}

// Drives the bucketed all-reduce overlap for one replica: receives the
// model's backward-stage completion notifications, packs each finished
// param into its flat-buffer slot, and submits a bucket to the
// communication thread the moment its last param is packed — while the
// main thread keeps running backward. flush() picks up anything the model
// never announced (ascending bucket order, so the fallback order is also
// identical across ranks). Pack time is accumulated separately so the
// trainer can bill it to kGradPack instead of kBackward.
class BucketedGradSync final : public nn::GradReadySink {
 public:
  BucketedGradSync(FlatBuffer* buf, const std::vector<nn::Param*>* params,
                   std::vector<BucketSpan> partition,
                   dist::BucketReducer* reducer)
      : buf_(buf),
        params_(params),
        partition_(std::move(partition)),
        reducer_(reducer) {
    param_bucket_.assign(params_->size(), 0);
    for (std::size_t b = 0; b < partition_.size(); ++b) {
      const BucketSpan& span = partition_[b];
      for (std::size_t p = span.first_param;
           p < span.first_param + span.param_count; ++p) {
        param_bucket_[p] = b;
      }
    }
    index_of_.reserve(params_->size());
    for (std::size_t p = 0; p < params_->size(); ++p) {
      index_of_.emplace((*params_)[p], p);
    }
    pending_.resize(partition_.size());
    begin_step();
  }

  // Resets per-step tracking; call before every backward pass.
  void begin_step() {
    for (std::size_t b = 0; b < partition_.size(); ++b) {
      pending_[b] = partition_[b].param_count;
    }
    submitted_.assign(partition_.size(), 0);
    packed_.assign(params_->size(), 0);
    pack_seconds_ = 0.0;
  }

  void on_grads_ready(const std::vector<nn::Param*>& ready) override {
    obs::Timer timer;
    for (nn::Param* p : ready) {
      const auto it = index_of_.find(p);
      if (it == index_of_.end()) continue;  // not a trainable param of ours
      const std::size_t idx = it->second;
      if (packed_[idx]) continue;  // double notification: first one wins
      buf_->pack_grad(*params_, idx);
      packed_[idx] = 1;
      const std::size_t b = param_bucket_[idx];
      if (--pending_[b] == 0) submit(b);
    }
    pack_seconds_ += timer.seconds();
  }

  // Packs and submits every bucket not yet launched, in ascending index
  // order. Makes the overlap correct (just not overlapped) for models
  // that never call the sink.
  void flush() {
    obs::Timer timer;
    for (std::size_t b = 0; b < partition_.size(); ++b) {
      if (submitted_[b]) continue;
      const BucketSpan& span = partition_[b];
      for (std::size_t p = span.first_param;
           p < span.first_param + span.param_count; ++p) {
        if (!packed_[p]) {
          buf_->pack_grad(*params_, p);
          packed_[p] = 1;
        }
      }
      submit(b);
    }
    pack_seconds_ += timer.seconds();
  }

  // Main-thread pack time accumulated since begin_step (notify + flush).
  double pack_seconds() const { return pack_seconds_; }

 private:
  void submit(std::size_t b) {
    const std::span<float> span = buf_->bucket_span(partition_[b]);
    // Per-bucket boundary check: a NaN minted by backward is attributed
    // before the bucket's collective smears it across ranks.
    PODNET_CHECK_FINITE(span, "post_backward gradients");
    reducer_->submit(static_cast<std::int64_t>(b), span);
    submitted_[b] = 1;
  }

  FlatBuffer* buf_;
  const std::vector<nn::Param*>* params_;
  std::vector<BucketSpan> partition_;
  dist::BucketReducer* reducer_;
  std::unordered_map<const nn::Param*, std::size_t> index_of_;
  std::vector<std::size_t> param_bucket_;  // param index -> bucket index
  std::vector<std::size_t> pending_;       // unpacked params per bucket
  std::vector<char> submitted_;
  std::vector<char> packed_;
  double pack_seconds_ = 0.0;
};

}  // namespace

bool ir_eval_default() {
  const char* v = std::getenv("PODNET_IR");
  return v != nullptr && std::string_view(v) != "0";
}

TrainResult train(const TrainConfig& config) {
  const int R = config.replicas;
  if (R < 1) throw std::invalid_argument("replicas must be >= 1");
  if (config.per_replica_batch < 1) {
    throw std::invalid_argument("per_replica_batch must be >= 1");
  }
  if (config.dataset.num_classes < 2) {
    throw std::invalid_argument("dataset.num_classes must be >= 2");
  }
  if (config.per_replica_batch * R > config.dataset.train_size) {
    throw std::invalid_argument("global batch larger than train split");
  }
  if (config.checkpoint_every_epochs > 0 && config.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "checkpoint_every_epochs requires checkpoint_path");
  }
  if (config.resume && config.checkpoint_path.empty()) {
    throw std::invalid_argument("resume requires checkpoint_path");
  }
  if (config.min_ranks < 1) {
    throw std::invalid_argument("min_ranks must be >= 1");
  }
  if (!(config.eval_every_epochs > 0)) {
    throw std::invalid_argument("eval_every_epochs must be > 0");
  }
  make_groups(config.bn, R);  // throws on a grouping that does not fit
  for (const dist::FaultSpec& f : config.faults.faults) {
    // A silently killed rank is only survivable when its peers can both
    // detect the hang (deadlines) and continue without it (elastic);
    // anything else is a scripted infinite hang.
    if (f.kind == dist::FaultKind::kPermanentKill &&
        !(config.elastic && config.collective_deadline.enabled())) {
      throw std::invalid_argument(
          "kPermanentKill faults require elastic=true and an enabled "
          "collective_deadline");
    }
  }

  data::SyntheticImageNet dataset(config.dataset);

  // One injector per train() call, shared across recovery attempts: each
  // scripted fault fires at most once, so replayed steps are clean. Fault
  // specs name *original* rank ids, so the injector is sized to R even
  // after the world shrinks.
  std::unique_ptr<dist::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<dist::FaultInjector>(config.faults, R);
  }

  TrainResult result;
  const Clock::time_point t0 = Clock::now();
  Supervisor supervisor(config, result);

  for (;;) {  // supervised attempts; bounded by max_restarts / min_ranks
    const int W = supervisor.world_size();
    const std::vector<int>& survivors = supervisor.survivors();
    result.global_batch = config.per_replica_batch * W;
    std::atomic<bool> inconsistent{false};

    dist::CommOptions comm_options;
    comm_options.deadline = config.collective_deadline;
    if (comm_options.deadline.enabled()) {
      // Fresh board per incarnation (death flags are sticky); slots are
      // indexed by original rank id, shared with the BN-group comms.
      comm_options.health = std::make_shared<dist::HealthBoard>(R);
    }
    comm_options.global_ranks = survivors;
    comm_options.generation = supervisor.generation();
    dist::Communicator comm(W, comm_options);
    if (injector) comm.set_fault_injector(injector.get());

    dist::BnGroups groups;
    try {
      groups = make_groups(config.bn, W);
    } catch (const std::invalid_argument&) {
      // Degraded mode: the configured grouping no longer divides the
      // shrunken world; fall back to replica-local batch norm.
    }
    std::unique_ptr<dist::BnSyncSet> bn_syncs;
    if (!groups.empty()) {
      bn_syncs = std::make_unique<dist::BnSyncSet>(groups, comm_options);
    }
    std::vector<std::vector<std::uint8_t>> replica_blobs(
        static_cast<std::size_t>(W));
    const bool resume_now = supervisor.have_checkpoint();
    // Marker for the first step of this attempt (obs::StepMetrics::
    // recovery_event): how the previous attempt was recovered from.
    const int pending_recovery = static_cast<int>(result.last_recovery);

    auto replica_body = [&](int rank) {
      // --- Per-replica (thread-confined) state ------------------------------
      std::unique_ptr<nn::Model> model_ptr;
      if (config.model_factory) {
        model_ptr = config.model_factory(rank);
      } else {
        effnet::ModelSpec spec = config.spec;
        spec.resolution = config.dataset.resolution;
        effnet::ModelOptions mopts;
        mopts.init_seed = config.seed;
        mopts.replica_id = rank;
        mopts.precision = config.precision;
        mopts.num_classes = config.dataset.num_classes;
        model_ptr = std::make_unique<effnet::EfficientNet>(spec, mopts);
      }
      nn::Model& model = *model_ptr;
      if (bn_syncs) model.set_bn_sync(bn_syncs->sync(rank));

      auto params = nn::parameters_of(model);
      FlatBuffer bucket(params);
      // Bucketed overlap wiring. Declaration order matters for unwinding:
      // `bucket` outlives `reducer` (the communication thread reads bucket
      // spans until joined), and `grad_sync` — which references both — is
      // destroyed first. The reducer's destructor aborts the communicator
      // only if buckets are still outstanding, so a clean step leaves the
      // world healthy while an exception mid-backward cannot strand the
      // communication thread at a dead rendezvous.
      std::unique_ptr<dist::BucketReducer> reducer;
      std::unique_ptr<BucketedGradSync> grad_sync;
      if (config.overlap) {
        reducer = std::make_unique<dist::BucketReducer>(&comm, rank,
                                                        config.allreduce);
        grad_sync = std::make_unique<BucketedGradSync>(
            &bucket, &params, bucket.partition(config.bucket_bytes),
            reducer.get());
        model.set_grad_ready_sink(grad_sync.get());
      }
      auto optimizer = optim::make_optimizer(config.optimizer);
      std::unique_ptr<optim::WeightEma> ema;
      if (config.ema_decay > 0.f) {
        ema = std::make_unique<optim::WeightEma>(params, config.ema_decay);
      }

      optim::LrScheduleConfig sched_cfg = config.schedule;
      sched_cfg.base_lr =
          optim::scaled_base_lr(config.lr_per_256, result.global_batch);
      sched_cfg.total_epochs = config.epochs;  // decay horizon == run length
      auto schedule = optim::make_schedule(sched_cfg);

      // Sharded over the *current* world: after a resize the survivors
      // repartition both splits among themselves.
      data::TrainLoader loader(&dataset, rank, W, config.per_replica_batch);
      data::EvalLoader eval_loader(&dataset, rank, W,
                                   std::min<tensor::Index>(
                                       config.per_replica_batch, 256));
      const tensor::Index steps_per_epoch = loader.steps_per_epoch();
      const std::int64_t total_steps = static_cast<std::int64_t>(
          std::llround(config.epochs * static_cast<double>(steps_per_epoch)));

      std::vector<nn::Tensor*> bn_state;
      model.collect_state(bn_state);
      std::vector<nn::Rng*> rngs;
      model.collect_rngs(rngs);

      if (!config.init_checkpoint_path.empty()) {
        // Every replica loads the same file -> weights stay identical.
        load_checkpoint(config.init_checkpoint_path, params, bn_state);
      }

      double loss_sum = 0.0;
      std::int64_t loss_steps = 0;
      std::int64_t train_correct = 0, train_seen = 0;
      std::int64_t start_step = 0;

      if (resume_now) {
        ExtraState extra;
        const CheckpointMeta meta =
            load_checkpoint(config.checkpoint_path, params, bn_state, &extra);
        if (const auto* optim_blob = find_extra(extra, "optim")) {
          optim::StateReader orr(*optim_blob);
          optimizer->load_state(orr, params);
          if (ema) {
            const auto* ema_blob = find_extra(extra, "ema");
            if (!ema_blob) {
              throw std::runtime_error(
                  "checkpoint: missing EMA state for resume");
            }
            optim::StateReader er(*ema_blob);
            ema->load_state(er);
          }
          // A survivor resumes from the blob written under its rank at the
          // time the checkpoint was taken (identity until a resize).
          const std::string key =
              "replica/" + std::to_string(supervisor.blob_rank(rank));
          const auto* replica_blob = find_extra(extra, key);
          if (!replica_blob) {
            throw std::runtime_error("checkpoint: missing '" + key +
                                     "' state for resume");
          }
          optim::StateReader rr(*replica_blob);
          load_replica_state(rr, rngs, bn_state, loss_sum, loss_steps,
                             train_correct, train_seen);
          // The epoch is the resume coordinate that survives a resize
          // (steps_per_epoch changes with W). In the world that wrote the
          // checkpoint it maps back to exactly meta.step, since meta.epoch
          // is meta.step / steps_per_epoch.
          start_step = std::llround(
              meta.epoch * static_cast<double>(steps_per_epoch));
        }
        // No "optim" blob: a weights-only checkpoint (e.g. the final one of
        // a finished run) degrades to a warm start from step 0.
      }

      const double start_epoch = static_cast<double>(start_step) /
                                 static_cast<double>(steps_per_epoch);
      double next_eval_epoch = next_after(
          config.eval_every_epochs, config.eval_every_epochs, start_epoch);
      double next_ckpt_epoch =
          next_after(config.checkpoint_every_epochs,
                     config.checkpoint_every_epochs, start_epoch);

      // Compiled graph-IR eval path (DESIGN.md "Graph IR & passes"). The
      // model re-lowers at every eval point: conv+BN folding bakes the
      // *current* weights and BN statistics into constants, so the program
      // is rebuilt after the EMA swap and the BN averaging, cheap next to
      // the eval pass itself.
      const bool use_ir = config.ir_eval && model.lowerable();
      std::int64_t ir_bytes_last_eval = 0;

      auto run_eval = [&](double at_epoch, float lr_now_) {
        // Evaluate the EMA weights when enabled (swapped back afterwards).
        if (ema) ema->swap(params);
        // Average batch-norm running statistics across replicas so every
        // replica evaluates with the same (global) statistics.
        std::vector<float> flat = FlatBuffer::pack_tensors(bn_state);
        comm.allreduce_sum(rank, flat, dist::AllReduceAlgorithm::kFlat,
                           "eval_bn_state");
        FlatBuffer::unpack_tensors(flat, 1.0f / static_cast<float>(W),
                                   bn_state);

        // Distributed evaluation (Sec 3.3): each replica scores its shard.
        std::int64_t correct = 0, correct5 = 0, count = 0;
        ir::Program eval_prog;  // must outlive the executor (borrowed)
        std::unique_ptr<ir::Executor> exec;
        if (use_ir) {
          eval_prog = nn::lower_to_program(model);
          ir::run_passes(eval_prog);
          exec = std::make_unique<ir::Executor>(eval_prog);
          // The planned arena replaces the interpreter's per-layer im2col
          // scratch; training re-grows it lazily on the next step.
          model.release_scratch();
        }
        for (tensor::Index i = 0; i < eval_loader.num_batches(); ++i) {
          data::Batch b = eval_loader.batch(i);
          if (b.count() == 0) break;
          nn::Tensor logits = exec
                                  ? exec->run(b.images)
                                  : model.forward(b.images, /*training=*/false);
          if (exec && check::kEnabled && i == 0) {
            // Instrumented builds gate the compiled program against the
            // layer interpreter on the first shard batch every eval.
            assert_ir_matches(logits,
                              model.forward(b.images, /*training=*/false));
          }
          correct += nn::top_k_correct(logits, b.labels, 1);
          correct5 += nn::top_k_correct(logits, b.labels, 5);
          count += b.count();
        }
        if (exec) ir_bytes_last_eval = exec->stats().arena_bytes;
        if (ema) ema->swap(params);  // restore live training weights
        const double total_correct =
            comm.allreduce_scalar(rank, static_cast<double>(correct),
                                  "eval_correct");
        const double total_correct5 =
            comm.allreduce_scalar(rank, static_cast<double>(correct5),
                                  "eval_correct5");
        const double total_count =
            comm.allreduce_scalar(rank, static_cast<double>(count),
                                  "eval_count");
        const double sum_loss =
            comm.allreduce_scalar(rank, loss_sum, "eval_loss");
        const double sum_steps =
            comm.allreduce_scalar(rank, static_cast<double>(loss_steps),
                                  "eval_loss_steps");
        const double sum_train_correct =
            comm.allreduce_scalar(rank, static_cast<double>(train_correct),
                                  "eval_train_correct");
        const double sum_train_seen =
            comm.allreduce_scalar(rank, static_cast<double>(train_seen),
                                  "eval_train_seen");
        loss_sum = 0.0;
        loss_steps = 0;
        train_correct = 0;
        train_seen = 0;

        if (config.check_consistency) {
          bucket.pack_values(params);
          double checksum = 0.0;
          for (float v : bucket.span()) checksum += v;
          const auto [lo, hi] =
              comm.allreduce_minmax(rank, checksum, "consistency_checksum");
          if (hi != lo) inconsistent.store(true);
        }

        if (rank == 0) {
          EvalPoint p;
          p.epoch = at_epoch;
          p.eval_accuracy = total_count > 0 ? total_correct / total_count : 0;
          p.eval_top5_accuracy =
              total_count > 0 ? total_correct5 / total_count : 0;
          p.train_accuracy =
              sum_train_seen > 0 ? sum_train_correct / sum_train_seen : 0;
          p.train_loss = sum_steps > 0 ? sum_loss / sum_steps : 0;
          p.lr = lr_now_;
          p.wall_seconds = seconds_since(t0);
          result.history.push_back(p);
          if (config.verbose) {
            std::printf(
                "[%s] epoch %6.2f  loss %7.4f  train top-1 %6.4f  eval top-1 "
                "%6.4f  lr %8.5f\n",
                model.name().c_str(), at_epoch, p.train_loss, p.train_accuracy,
                p.eval_accuracy, static_cast<double>(lr_now_));
            std::fflush(stdout);
          }
        }
        comm.barrier(rank, "eval_done");  // history updated first
      };

      // Full-state checkpoint: every rank contributes its thread-confined
      // state; rank 0 assembles and writes atomically between barriers.
      auto write_train_checkpoint = [&](std::int64_t at_step,
                                        double at_epoch) {
        optim::StateWriter w;
        save_replica_state(w, rngs, bn_state, loss_sum, loss_steps,
                           train_correct, train_seen);
        replica_blobs[static_cast<std::size_t>(rank)] = w.take();
        comm.barrier(rank, "ckpt_gather");  // all contributions in place
        if (rank == 0) {
          ExtraState extra;
          optim::StateWriter ow;
          optimizer->save_state(ow);
          extra.emplace_back("optim", ow.take());
          if (ema) {
            optim::StateWriter ew;
            ema->save_state(ew);
            extra.emplace_back("ema", ew.take());
          }
          for (int r = 0; r < W; ++r) {
            extra.emplace_back("replica/" + std::to_string(r),
                               replica_blobs[static_cast<std::size_t>(r)]);
          }
          optim::StateWriter ww;  // kept in the format; resume reads meta
          ww.put_u64(static_cast<std::uint64_t>(W));
          extra.emplace_back("world", ww.take());
          CheckpointMeta meta;
          meta.step = at_step;
          meta.epoch = at_epoch;
          save_checkpoint(config.checkpoint_path, params, bn_state, meta,
                          extra);
          // Safe to write here: peers are between the gather and durable
          // barriers, and blob ranks are read only at an attempt's start.
          supervisor.checkpoint_written(at_epoch);
        }
        comm.barrier(rank, "ckpt_durable");  // durable before proceeding
      };

      // With prefetch on, a background thread renders batch t+1 while this
      // replica trains on batch t (host-side infeed). The prefetcher owns a
      // *separate* loader so its epoch-permutation cache cannot race.
      std::unique_ptr<data::TrainLoader> prefetch_loader;
      std::unique_ptr<data::Prefetcher> prefetcher;
      if (config.prefetch) {
        prefetch_loader = std::make_unique<data::TrainLoader>(
            &dataset, rank, W, config.per_replica_batch);
        prefetcher = std::make_unique<data::Prefetcher>(
            prefetch_loader.get(), total_steps, start_step);
      }

      float lr_now = 0.f;
      obs::PhaseTotals phase_totals;
      const bool observing = config.metrics_sink != nullptr;
      dist::GroupBnSync* bn_timer =
          bn_syncs ? bn_syncs->group_sync(rank) : nullptr;
      if (bn_timer) (void)bn_timer->take_seconds();  // clear init-time noise
      if (observing) (void)obs::drain_spans();       // likewise for spans
      std::int64_t seen_ar_bytes = comm.stats(rank).allreduce_total().bytes;
      for (std::int64_t step = start_step; step < total_steps; ++step) {
        // Heartbeat first: a rank that dies inside this step leaves a beat
        // that goes stale while its peers wait, which is exactly the
        // staleness the watchdog's death declaration requires.
        comm.heartbeat(rank);
        if (injector) {
          injector->begin_step(survivors[static_cast<std::size_t>(rank)],
                               step);
        }
        obs::StepMetrics sm;
        sm.step = step;
        sm.rank = rank;
        sm.restarts = result.restarts;
        sm.world_size = W;
        sm.recovery_event = step == start_step ? pending_recovery : 0;
        obs::Timer step_timer;
        obs::Timer phase_timer;
        const tensor::Index epoch_idx =
            static_cast<tensor::Index>(step / steps_per_epoch);
        const tensor::Index in_step =
            static_cast<tensor::Index>(step % steps_per_epoch);
        data::Batch batch;
        if (prefetcher) {
          auto fetched = prefetcher->next();
          if (!fetched.has_value()) break;  // defensive; counts always match
          batch = std::move(*fetched);
        } else {
          batch = loader.batch(epoch_idx, in_step);
        }
        sm.phase(obs::Phase::kDataLoad) = phase_timer.lap();

        nn::zero_grads(params);
        if (grad_sync) grad_sync->begin_step();
        nn::Tensor logits = model.forward(batch.images, /*training=*/true);
        nn::LossResult loss = nn::softmax_cross_entropy(
            logits, batch.labels, config.label_smoothing);
        // BN group reductions run nested inside forward and backward;
        // report them as their own phase and keep kForward / kBackward
        // pure compute.
        const double fwd_s = phase_timer.lap();
        const double bn_s = bn_timer ? bn_timer->take_seconds() : 0.0;
        sm.phase(obs::Phase::kForward) = std::max(0.0, fwd_s - bn_s);
        model.backward(loss.grad_logits);
        const double bn_bwd_s = bn_timer ? bn_timer->take_seconds() : 0.0;
        sm.phase(obs::Phase::kBnSync) = bn_s + bn_bwd_s;
        double pack_s = 0.0;
        double ar_s = 0.0;
        double exposed_s = 0.0;
        if (grad_sync == nullptr) {
          sm.phase(obs::Phase::kBackward) =
              std::max(0.0, phase_timer.lap() - bn_bwd_s);

          // Gradient all-reduce -> global-mean gradients on every replica.
          // Pack/unpack get their own phase: billing them to the optimizer
          // (as before) hid bucketing overhead inside an unrelated column.
          bucket.pack_grads(params);
          // Phase-boundary numeric check (PODNET_CHECK builds): a NaN/Inf
          // minted by this replica's backward pass is reported here, before
          // the all-reduce smears it across every rank.
          PODNET_CHECK_FINITE(bucket.span(), "post_backward gradients");
          pack_s = phase_timer.lap();
          comm.allreduce_sum(rank, bucket.span(), config.allreduce,
                             "grad_allreduce");
          PODNET_CHECK_FINITE(bucket.span(), "post_allreduce gradients");
          ar_s = phase_timer.lap();
          // Serially, the step waits out the whole collective.
          exposed_s = ar_s;
        } else {
          // Overlapped: backward stage completions already packed and
          // launched most buckets on the communication thread (per-bucket
          // finite checks ran at submit). The backward lap includes that
          // main-thread pack work; re-bill it to kGradPack.
          const double bwd_lap = phase_timer.lap();
          const double pack_in_bwd = grad_sync->pack_seconds();
          sm.phase(obs::Phase::kBackward) =
              std::max(0.0, bwd_lap - pack_in_bwd - bn_bwd_s);
          grad_sync->flush();  // stragglers the model never announced
          pack_s = pack_in_bwd + phase_timer.lap();
          // Join point: every gradient must be globally reduced before
          // unpack. The wait itself is the *exposed* all-reduce time; the
          // drained total is the full communication time, mostly hidden
          // behind backward.
          const dist::DrainStats drained = reducer->wait_all();
          PODNET_CHECK_FINITE(bucket.span(), "post_allreduce gradients");
          exposed_s = phase_timer.lap();
          ar_s = drained.comm_seconds;
        }

        if (config.verify_collectives) {
          // Every rank hashes its reduced copy; the all-reduce contract says
          // the copies are bit-identical, so any corruption shows up as a
          // hi/lo disagreement — on every rank at once, which keeps the
          // failure collective (nobody is left blocked at a barrier).
          const double h = payload_hash(bucket.span());
          const auto [lo, hi] = comm.allreduce_minmax(rank, h, "grad_hash");
          const double verify_s = phase_timer.lap();
          ar_s += verify_s;  // verification is collective overhead
          exposed_s += verify_s;  // ...and the step waits it out in full
          if (hi != lo) {
            throw dist::ReplicaFailure(
                "corrupted all-reduce detected at step " +
                    std::to_string(step),
                rank, step);
          }
        }
        sm.phase(obs::Phase::kAllReduce) = ar_s;
        sm.phase(obs::Phase::kAllReduceExposed) = exposed_s;

        bucket.unpack_grads(params, 1.0f / static_cast<float>(W));
        pack_s += phase_timer.lap();
        sm.phase(obs::Phase::kGradPack) = pack_s;
        double opt_s = 0.0;
        if (config.clip_global_norm > 0.f) {
          optim::clip_grads_by_global_norm(params, config.clip_global_norm);
        }

        const double cont_epoch =
            static_cast<double>(step) / static_cast<double>(steps_per_epoch);
        lr_now = schedule->lr(cont_epoch);
        optimizer->step(params, lr_now);
        if (ema) ema->update(params);
        loss_sum += loss.loss;
        ++loss_steps;
        train_correct += loss.correct;
        train_seen += batch.count();
        opt_s += phase_timer.lap();
        sm.phase(obs::Phase::kOptimizer) = opt_s;
#ifdef PODNET_CHECK
        // Attribute a weight blow-up (bad LR, trust-ratio explosion) to
        // the optimizer step and the offending parameter by name.
        for (const nn::Param* p : params) {
          check::assert_finite(p->value.span(),
                               "post_optimizer param " + p->name);
        }
#endif

        // Step time stops here: eval and checkpoint writes are excluded so
        // throughput derived from step_s matches Table 1's convention.
        sm.step_s = step_timer.seconds();
        const double epoch_after = static_cast<double>(step + 1) /
                                   static_cast<double>(steps_per_epoch);
        sm.epoch = epoch_after;
        sm.images = batch.count();
        sm.loss = loss.loss;
        sm.lr = lr_now;

        const bool last = step + 1 == total_steps;
        if (epoch_after + 1e-9 >= next_eval_epoch || last) {
          obs::Timer eval_timer;
          run_eval(epoch_after, lr_now);
          sm.phase(obs::Phase::kEval) = eval_timer.seconds();
          sm.ir_scratch_bytes = ir_bytes_last_eval;
          next_eval_epoch = next_after(next_eval_epoch,
                                       config.eval_every_epochs, epoch_after);
        }

        // Bytes this rank pushed through allreduce_sum during the step
        // (gradient bucket, plus BN statistics when an eval ran).
        const std::int64_t ar_bytes_now =
            comm.stats(rank).allreduce_total().bytes;
        sm.allreduce_bytes = ar_bytes_now - seen_ar_bytes;
        seen_ar_bytes = ar_bytes_now;

        if (observing) {
          sm.kernels = obs::aggregate_spans(obs::drain_spans());
          config.metrics_sink->write(sm);
        }
        phase_totals.add(sm);

        // The final checkpoint below supersedes a periodic one at `last`.
        if (config.checkpoint_every_epochs > 0 && !last &&
            epoch_after + 1e-9 >= next_ckpt_epoch) {
          write_train_checkpoint(step + 1, epoch_after);
          next_ckpt_epoch = next_after(
              next_ckpt_epoch, config.checkpoint_every_epochs, epoch_after);
        }
      }
      if (observing) config.metrics_sink->flush();
      if (rank == 0) {
        result.model_name = model.name();
        result.total_steps = total_steps;
        result.wall_seconds = seconds_since(t0);
        result.phase_totals = phase_totals;
        result.ir_scratch_bytes = ir_bytes_last_eval;
        if (!config.checkpoint_path.empty()) {
          if (ema) ema->swap(params);  // checkpoint the eval-quality weights
          CheckpointMeta meta;
          meta.step = total_steps;
          meta.epoch = config.epochs;
          save_checkpoint(config.checkpoint_path, params, bn_state, meta);
          if (ema) ema->swap(params);
        }
      }
    };

    const std::vector<std::exception_ptr> errors =
        dist::run_replicas_collect(W, [&](int rank) {
          try {
            replica_body(rank);
          } catch (const dist::PermanentRankDeath&) {
            // Silent kill: the rank vanishes *without* aborting its
            // communicators, exactly like a preempted host. Its peers must
            // discover the loss through deadline-based hang detection.
            throw;
          } catch (...) {
            // Unblock peers waiting at collectives, then surface the
            // primary failure through the collected captures (CommAborted
            // echoes are filtered by primary_failure).
            comm.abort();
            if (bn_syncs) bn_syncs->abort_all();
            throw;
          }
        });
    if (dist::primary_failure(errors)) {
      supervisor.recover(errors);  // rethrows when the run cannot continue
      continue;
    }

    if (inconsistent.load()) {
      throw std::runtime_error(
          "replica weight divergence detected (check_consistency)");
    }
    break;
  }
  for (const EvalPoint& p : result.history) {
    if (p.eval_accuracy > result.peak_accuracy) {
      result.peak_accuracy = p.eval_accuracy;
      result.peak_epoch = p.epoch;
      result.seconds_to_peak = p.wall_seconds;
    }
  }
  if (!result.history.empty()) {
    result.final_train_loss = result.history.back().train_loss;
  }
  return result;
}

std::string summarize(const TrainConfig& config, const TrainResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s R=%d GB=%lld opt=%s decay=%s: peak top-1 %.4f @ epoch "
                "%.1f (%lld steps, %.1fs)",
                result.model_name.c_str(), config.replicas,
                static_cast<long long>(result.global_batch),
                optim::to_string(config.optimizer.kind).c_str(),
                optim::to_string(config.schedule.decay).c_str(),
                result.peak_accuracy, result.peak_epoch,
                static_cast<long long>(result.total_steps),
                result.wall_seconds);
  return std::string(buf);
}

}  // namespace podnet::core

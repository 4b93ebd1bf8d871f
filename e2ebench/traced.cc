// Traced mode: per-layer metrics.
//
// 1. One core::train call with check_consistency on (replicas must stay
//    bit-identical) gives the trainer's own phase split, the recovery
//    figures and the untraced step time.
// 2. A replay of the same workload's step through the public functions of
//    each module (loader, model, BN-sync hook, flat buffer, communicator,
//    optimizer), each call wrapped in a span recorded here, gives layer
//    self times. Spans are buffered per rank and written out when the run
//    ends, as JSON lines: name, rank, step, id, parent, start_us, end_us.
// 3. The eval pass through the compiled IR, checkpoint save/load and a
//    GEMM at the workload's largest pointwise shape are timed the same way.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "core/checkpoint.h"
#include "core/flat_params.h"
#include "data/loader.h"
#include "dist/bn_sync.h"
#include "dist/replica.h"
#include "effnet/flops.h"
#include "effnet/model.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "nn/loss.h"
#include "nn/lower.h"
#include "obs/timer.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/thread_pool.h"

namespace e2ebench {
namespace {

// ---- Spans -----------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int rank;
  std::int64_t step;  // -1: outside the training steps (eval, checkpoint)
  int id;
  int parent;  // id of the enclosing span on the same rank, -1 for a root
  double begin_s;
  double end_s;
};

// Per-thread recording state; a thread records only while `out` is set.
struct ThreadTrace {
  std::vector<SpanRecord>* out = nullptr;
  int rank = 0;
  std::int64_t step = -1;
  int next_id = 0;
  std::vector<std::size_t> open;  // indices into *out of the open spans
  bool in_backward = false;
};
thread_local ThreadTrace tls;

class Span {
 public:
  explicit Span(const char* name) {
    if (tls.out == nullptr) return;
    const int parent =
        tls.open.empty() ? -1 : (*tls.out)[tls.open.back()].id;
    index_ = tls.out->size();
    tls.out->push_back(
        {name, tls.rank, tls.step, tls.next_id++, parent, 0.0, 0.0});
    tls.open.push_back(index_);
    (*tls.out)[index_].begin_s = obs::clock_seconds();
  }
  ~Span() {
    if (index_ == kNone) return;
    (*tls.out)[index_].end_s = obs::clock_seconds();
    tls.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t index_ = kNone;
};

// Timing decorator installed around the trainer's BN statistics hook via
// Model::set_bn_sync: each group reduction becomes a child span of the
// forward or backward pass that issued it.
class TimedBnSync final : public nn::BnStatSync {
 public:
  explicit TimedBnSync(nn::BnStatSync* inner) : inner_(inner) {}
  void allreduce_sum(std::span<float> v) override {
    Span s(tls.in_backward ? "dist.bn_sync_bwd" : "dist.bn_sync_fwd");
    inner_->allreduce_sum(v);
  }
  int group_size() const override { return inner_->group_size(); }

 private:
  nn::BnStatSync* inner_;
};

// Per-name rollup of one rank's spans.
struct SpanStats {
  double total_s = 0;
  double self_s = 0;
  std::int64_t count = 0;
};

std::map<std::string, SpanStats> rollup(const std::vector<SpanRecord>& spans,
                                        bool steps_only) {
  std::map<int, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_s[by_id.at(s.parent)] += s.end_s - s.begin_s;
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (steps_only != (s.step >= 0)) continue;
    SpanStats& st = out[s.name];
    st.total_s += s.end_s - s.begin_s;
    st.self_s += s.end_s - s.begin_s - child_s[i];
    ++st.count;
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<std::vector<SpanRecord>>& spans) {
  std::ofstream f(path);
  for (const auto& rank_spans : spans) {
    for (const SpanRecord& s : rank_spans) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"rank\": %d, \"step\": %lld, "
                    "\"id\": %d, \"parent\": %d, \"start_us\": %.3f, "
                    "\"end_us\": %.3f}\n",
                    s.name, s.rank, static_cast<long long>(s.step), s.id,
                    s.parent, s.begin_s * 1e6, s.end_s * 1e6);
      f << line;
    }
  }
}

// ---- Replay ----------------------------------------------------------------

struct ReplayOutput {
  std::vector<std::vector<SpanRecord>> spans;  // by rank
  std::vector<std::vector<double>> arrival_s;  // [rank][step] at all-reduce
  std::vector<double> traced_step_ms;          // rank 0, even steps
  std::vector<double> untraced_step_ms;        // rank 0, odd steps
  dist::CollectiveStats allreduce;             // rank 0, training steps
  std::int64_t arena_bytes = 0;
  std::int64_t ir_images = 0;  // scored by rank 0 after the first batch
  std::int64_t checkpoint_bytes = 0;
  bool consistent = true;
};

constexpr int kCheckpointReps = 5;
constexpr std::int64_t kMinReplaySteps = 64;

std::unique_ptr<effnet::EfficientNet> make_model(const core::TrainConfig& c,
                                                 int rank) {
  effnet::ModelSpec spec = c.spec;
  spec.resolution = c.dataset.resolution;
  effnet::ModelOptions mopts;
  mopts.init_seed = c.seed;
  mopts.replica_id = rank;
  mopts.precision = c.precision;
  mopts.num_classes = c.dataset.num_classes;
  return std::make_unique<effnet::EfficientNet>(spec, mopts);
}

// FNV-1a of the parameter bytes: replicas must agree bit for bit.
double params_hash(std::span<const float> v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return static_cast<double>(h & ((1ull << 53) - 1));
}

ReplayOutput replay(const core::TrainConfig& config, std::int64_t steps,
                    const std::string& scratch) {
  const int W = config.replicas;
  data::SyntheticImageNet dataset(config.dataset);
  dist::Communicator comm(W);
  std::unique_ptr<dist::BnSyncSet> bn_syncs;
  if (config.bn.kind == core::BnGroupingConfig::Kind::k1d) {
    bn_syncs = std::make_unique<dist::BnSyncSet>(
        dist::make_bn_groups_1d(W, config.bn.group_size));
  }
  ReplayOutput out;
  out.spans.resize(static_cast<std::size_t>(W));
  out.arrival_s.assign(static_cast<std::size_t>(W),
                       std::vector<double>(static_cast<std::size_t>(steps)));
  for (auto& s : out.spans) s.reserve(static_cast<std::size_t>(steps) * 64);
  const std::int64_t global_batch = config.per_replica_batch * W;
  std::vector<char> consistent(static_cast<std::size_t>(W), 1);

  dist::run_replicas(W, [&](int rank) {
    tls = ThreadTrace{};
    tls.out = &out.spans[static_cast<std::size_t>(rank)];
    tls.rank = rank;
    auto model = make_model(config, rank);
    std::unique_ptr<TimedBnSync> timed_sync;
    if (bn_syncs) {
      timed_sync = std::make_unique<TimedBnSync>(bn_syncs->sync(rank));
      model->set_bn_sync(timed_sync.get());
    }
    auto params = nn::parameters_of(*model);
    std::vector<nn::Tensor*> bn_state;
    model->collect_state(bn_state);
    if (!config.init_checkpoint_path.empty()) {
      core::load_checkpoint(config.init_checkpoint_path, params, bn_state);
    }
    core::FlatBuffer bucket(params);
    auto optimizer = optim::make_optimizer(config.optimizer);
    optim::LrScheduleConfig sched_cfg = config.schedule;
    sched_cfg.base_lr = optim::scaled_base_lr(config.lr_per_256, global_batch);
    sched_cfg.total_epochs = config.epochs;
    auto schedule = optim::make_schedule(sched_cfg);
    data::TrainLoader loader(&dataset, rank, W, config.per_replica_batch);
    data::EvalLoader eval_loader(
        &dataset, rank, W, std::min<tensor::Index>(config.per_replica_batch, 256));
    const tensor::Index spe = loader.steps_per_epoch();
    if (rank == 0) comm.reset_stats();
    comm.barrier(rank, "replay_start");

    std::vector<SpanRecord>* const buffer = tls.out;
    for (std::int64_t step = 0; step < steps; ++step) {
      // Odd steps run with recording off: their step time against the
      // traced even steps is the tracing overhead.
      tls.out = step % 2 == 0 ? buffer : nullptr;
      tls.step = step;
      obs::Timer step_timer;
      Span step_span("step");
      data::Batch batch;
      {
        Span s("data.train_batch");
        batch = loader.batch(static_cast<tensor::Index>(step / spe),
                             static_cast<tensor::Index>(step % spe));
      }
      nn::zero_grads(params);
      nn::Tensor logits;
      {
        Span s("nn.forward");
        logits = model->forward(batch.images, /*training=*/true);
      }
      nn::LossResult loss;
      {
        Span s("nn.loss");
        loss = nn::softmax_cross_entropy(logits, batch.labels,
                                         config.label_smoothing);
      }
      {
        tls.in_backward = true;
        Span s("nn.backward");
        model->backward(loss.grad_logits);
        tls.in_backward = false;
      }
      {
        Span s("core.grad_pack");
        bucket.pack_grads(params);
      }
      out.arrival_s[static_cast<std::size_t>(rank)]
                   [static_cast<std::size_t>(step)] = obs::clock_seconds();
      {
        Span s("dist.allreduce");
        comm.allreduce_sum(rank, bucket.span(), config.allreduce,
                           "grad_allreduce");
      }
      {
        Span s("core.grad_unpack");
        bucket.unpack_grads(params, 1.0f / static_cast<float>(W));
      }
      {
        Span s("optim.step");
        const double epoch =
            static_cast<double>(step) / static_cast<double>(spe);
        optimizer->step(params, schedule->lr(epoch));
      }
      if (rank == 0) {
        (step % 2 == 0 ? out.traced_step_ms : out.untraced_step_ms)
            .push_back(step_timer.seconds() * 1e3);
      }
    }
    tls.out = buffer;
    tls.step = -1;
    if (rank == 0) out.allreduce = comm.stats(0).allreduce_total();

    bucket.pack_values(params);
    const auto [lo, hi] =
        comm.allreduce_minmax(rank, params_hash(bucket.span()), "replay_hash");
    consistent[static_cast<std::size_t>(rank)] = lo == hi;

    // Eval through the compiled graph IR with the default pass set.
    std::vector<data::Batch> batches;
    for (tensor::Index i = 0; i < eval_loader.num_batches(); ++i) {
      Span s("data.eval_batch");
      batches.push_back(eval_loader.batch(i));
    }
    ir::Program prog;
    std::unique_ptr<ir::Executor> exec;
    {
      Span compile("ir.compile");
      {
        Span s("ir.lower");
        prog = nn::lower_to_program(*model);
      }
      {
        Span s("ir.passes");
        ir::run_passes(prog, ir::PassOptions{});
      }
      Span s("ir.bind");
      exec = std::make_unique<ir::Executor>(prog);
      exec->run(batches.front().images);
    }
    model->release_scratch();
    std::int64_t images = 0;
    for (std::size_t i = 1; i < batches.size(); ++i) {
      Span s("ir.run");
      exec->run(batches[i].images);
      images += batches[i].count();
    }

    if (rank == 0) {
      out.arena_bytes = exec->stats().arena_bytes;
      out.ir_images = images;
      // A full-state checkpoint as the trainer writes it: weights, BN
      // statistics and optimizer slots.
      const std::string path = scratch + "/trace.ckpt";
      optim::StateWriter ow;
      optimizer->save_state(ow);
      core::ExtraState extra;
      extra.emplace_back("optim", ow.take());
      for (int i = 0; i < kCheckpointReps; ++i) {
        Span s("core.checkpoint_save");
        core::save_checkpoint(path, params, bn_state, core::CheckpointMeta{},
                              extra);
      }
      for (int i = 0; i < kCheckpointReps; ++i) {
        Span s("core.checkpoint_load");
        core::load_checkpoint(path, params, bn_state);
      }
      out.checkpoint_bytes =
          static_cast<std::int64_t>(std::filesystem::file_size(path));
    }
    tls = ThreadTrace{};
  });
  for (char c : consistent) out.consistent = out.consistent && c != 0;
  return out;
}

// GEMM throughput at the workload's largest pointwise (1x1 conv) shape:
// M = batch * output pixels, N = output channels, K = input channels.
double pointwise_gemm_gflops(const core::TrainConfig& c, double seconds) {
  const effnet::ModelCost cost = effnet::analyze(
      c.spec, c.dataset.num_classes, c.dataset.resolution);
  const effnet::LayerCost* best = nullptr;
  for (const effnet::LayerCost& l : cost.layers) {
    const bool pointwise = l.name.ends_with("/expand") ||
                           l.name.ends_with("/project") ||
                           l.name == "head/conv";
    if (pointwise && (best == nullptr || l.macs > best->macs)) best = &l;
  }
  if (best == nullptr) return 0;
  const auto k = static_cast<std::int64_t>(best->gemm_k);
  const auto n = static_cast<std::int64_t>(best->gemm_n);
  const auto m = static_cast<std::int64_t>(
      best->macs / (best->gemm_k * best->gemm_n) *
      static_cast<double>(c.per_replica_batch));
  tensor::Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> out(static_cast<std::size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  std::vector<double> per_call;
  obs::Timer total;
  while (per_call.size() < 5 || total.seconds() < seconds) {
    obs::Timer t;
    tensor::gemm_contiguous(false, false, m, n, k, 1.0f, a.data(), b.data(),
                            0.0f, out.data());
    per_call.push_back(t.seconds());
  }
  per_call.erase(per_call.begin());  // first call warms caches
  std::printf("gemm %lldx%lldx%lld (%s), %zu calls\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), best->name.c_str(), per_call.size());
  return 2.0 * static_cast<double>(m * n * k) / median(per_call) / 1e9;
}

}  // namespace

RunResult run_traced(const Options& opts) {
  const Workload& w = *opts.workload;
  RunResult out;
  const std::string dir = seed_dir(opts, 0);
  std::filesystem::create_directories(dir);
  core::TrainConfig config = w.make(sub_seed(opts.seed, 0), dir);

  // 1. The trainer's own view, with replica consistency asserted.
  ++out.attempted;
  core::TrainConfig checked = config;
  checked.check_consistency = true;
  ObservedRun run;
  try {
    run = observed_train(checked);
  } catch (const std::runtime_error& e) {
    fail_check(out, std::string("check_consistency run failed: ") + e.what());
    return out;
  }
  std::vector<double> train_step_ms;
  std::map<std::string, double> phase_ms;
  double step_ms_sum = 0;
  for (const StepRecord& r : run.records) {
    if (r.rank != 0) continue;
    train_step_ms.push_back(r.step_ms);
    step_ms_sum += r.step_ms;
    for (const auto& [name, ms] : r.phases_ms) phase_ms[name] += ms;
  }
  const double n_steps = static_cast<double>(train_step_ms.size());
  Metrics& m = out.metrics;
  // kAllReduce and kAllReduceExposed overlap, and eval is outside the
  // step: the step is data_load + forward + bn_sync + backward + grad_pack
  // + exposed all-reduce + optimizer plus whatever no phase accounts for.
  double attributed = 0;
  for (const auto& [name, ms] : phase_ms) {
    m["core.phase." + name + "_ms"] = {ms / n_steps, "ms"};
    if (name != "eval" && name != "allreduce") attributed += ms;
  }
  m["core.phase.unattributed_ms"] = {(step_ms_sum - attributed) / n_steps,
                                     "ms"};
  const double stall = recovery_stall_seconds(run);
  m["core.recovery_stall_s"] = {stall < 0 ? 0 : stall, "s"};
  const double attempted_steps = static_cast<double>(
      run.result.total_steps + run.result.failed_steps);
  m["core.failed_step_share"] = {
      static_cast<double>(run.result.failed_steps) / attempted_steps,
      "fraction"};

  // 2-3. Replay with spans, eval through the IR, checkpoints.
  ++out.attempted;
  // As many steps as one train() call, and enough for step-time medians.
  const auto total_steps = std::max<std::int64_t>(
      kMinReplaySteps,
      std::llround(config.epochs *
                   static_cast<double>(config.dataset.train_size /
                                       (config.per_replica_batch *
                                        config.replicas))));
  const ReplayOutput rep = replay(config, total_steps, opts.scratch);
  if (!rep.consistent) fail_check(out, "replay replicas diverged");
  write_trace(opts.scratch + "/trace.jsonl", rep.spans);

  const auto steps = rollup(rep.spans[0], /*steps_only=*/true);
  const auto other = rollup(rep.spans[0], /*steps_only=*/false);
  const double traced_steps = static_cast<double>(rep.traced_step_ms.size());
  auto per_step = [&](const char* name, bool self) {
    const auto it = steps.find(name);
    if (it == steps.end()) return 0.0;
    return (self ? it->second.self_s : it->second.total_s) * 1e3 /
           traced_steps;
  };
  auto once = [&](const char* name) {
    const auto it = other.find(name);
    return it == other.end() ? SpanStats{} : it->second;
  };
  std::printf("replay: %lld steps x %d ranks, every other step traced; "
              "rank-0 time per traced step:\n",
              static_cast<long long>(total_steps), config.replicas);
  for (const auto& [name, st] : steps) {
    std::printf("  %-22s %10.4f ms self  %10.4f ms total\n", name.c_str(),
                st.self_s * 1e3 / traced_steps, st.total_s * 1e3 / traced_steps);
  }
  std::printf("step p50: core::train %.4f ms, replay untraced %.4f ms, "
              "replay traced %.4f ms\n",
              median(train_step_ms), median(rep.untraced_step_ms),
              median(rep.traced_step_ms));
  m["data.train_batch_ms"] = {per_step("data.train_batch", false), "ms"};
  m["nn.forward_ms"] = {per_step("nn.forward", true), "ms"};
  m["nn.backward_ms"] = {per_step("nn.backward", true), "ms"};
  m["nn.loss_ms"] = {per_step("nn.loss", false), "ms"};
  m["dist.bn_sync_fwd_ms"] = {per_step("dist.bn_sync_fwd", false), "ms"};
  m["dist.bn_sync_bwd_ms"] = {per_step("dist.bn_sync_bwd", false), "ms"};
  m["core.grad_pack_ms"] = {
      per_step("core.grad_pack", false) + per_step("core.grad_unpack", false),
      "ms"};
  m["optim.step_ms"] = {per_step("optim.step", false), "ms"};
  m["trace.unattributed_ms"] = {per_step("step", true), "ms"};
  m["dist.exposed_allreduce_share"] = {
      per_step("dist.allreduce", false) / per_step("step", false), "fraction"};

  std::vector<double> skew_ms;
  for (std::int64_t i = 0; i < total_steps; ++i) {
    double lo = INFINITY, hi = -INFINITY;
    for (const auto& a : rep.arrival_s) {
      lo = std::min(lo, a[static_cast<std::size_t>(i)]);
      hi = std::max(hi, a[static_cast<std::size_t>(i)]);
    }
    skew_ms.push_back((hi - lo) * 1e3);
  }
  m["dist.rank_skew_ms"] = {median(skew_ms), "ms"};
  m["trace.overhead_ms"] = {
      median(rep.traced_step_ms) - median(rep.untraced_step_ms), "ms"};
  const double steps_d = static_cast<double>(total_steps);
  m["dist.allreduce_ms_per_step"] = {rep.allreduce.seconds * 1e3 / steps_d,
                                     "ms"};
  m["dist.allreduce_calls_per_step"] = {
      static_cast<double>(rep.allreduce.calls) / steps_d, "count"};
  m["dist.allreduce_bytes_per_step"] = {
      static_cast<double>(rep.allreduce.bytes) / steps_d, "bytes"};

  const double flops_per_img =
      effnet::analyze(config.spec, config.dataset.num_classes,
                      config.dataset.resolution)
          .training_flops();
  const double compute_ms =
      per_step("nn.forward", true) + per_step("nn.backward", true);
  m["nn.train_gflops"] = {flops_per_img *
                              static_cast<double>(config.per_replica_batch) /
                              (compute_ms * 1e-3) / 1e9,
                          "GF/s"};

  const SpanStats eval_batch = once("data.eval_batch");
  m["data.eval_batch_ms"] = {
      eval_batch.total_s * 1e3 / static_cast<double>(eval_batch.count), "ms"};
  m["ir.compile_ms"] = {once("ir.compile").total_s * 1e3, "ms"};
  m["ir.run_ms_per_img"] = {
      once("ir.run").total_s * 1e3 / static_cast<double>(rep.ir_images), "ms"};
  m["ir.arena_bytes"] = {static_cast<double>(rep.arena_bytes), "bytes"};
  m["core.checkpoint_save_ms"] = {
      once("core.checkpoint_save").total_s * 1e3 / kCheckpointReps, "ms"};
  m["core.checkpoint_load_ms"] = {
      once("core.checkpoint_load").total_s * 1e3 / kCheckpointReps, "ms"};
  m["core.checkpoint_bytes"] = {static_cast<double>(rep.checkpoint_bytes),
                                "bytes"};

  m["tensor.gemm_gflops"] = {pointwise_gemm_gflops(config, 0.5), "GF/s"};
  m["tensor.pool_threads"] = {
      static_cast<double>(tensor::ThreadPool::global().worker_count() + 1),
      "count"};
  return out;
}

}  // namespace e2ebench

// Graph-IR pass benchmark: the nn layer interpreter vs the compiled
// ir::Executor on EfficientNet eval, one row per pass configuration
// (no passes / conv+BN fold / fold+fuse+DCE with the planned arena).
//
// Reported per row: eval time per image (p10/p50/p90 over interleaved
// repetitions; ms_per_img is the median) and the peak scratch story — the
// executor's planned arena bytes and its no-reuse upper bound next to the
// interpreter's persistent per-layer im2col scratch high-water mark. Every
// configuration is built and warmed up first; each repetition then times
// one forward of every configuration in turn, so host drift lands on all
// of them alike.
//
// Modes sharing one binary:
//   (default)       prints the comparison table for --model (b0);
//   --json PATH     *appends* one JSONL "ir_bench" row per configuration
//                   to PATH (bench/run_benchmarks.sh chains this after
//                   micro_kernels so BENCH_kernels.json carries both) and
//                   re-validates the file through obs::validate_jsonl_file;
//   --smoke         correctness gate for the `ir` ctest label: runs the
//                   pico spec and fails unless every configuration's
//                   logits track the interpreter and the planned arena
//                   beats the no-reuse layout;
//   --model NAME    any effnet::by_name spec (default b0);
//   --resolution N  input resolution (default: the spec's own);
//   --batch N       eval batch per timed forward (default 2);
//   --iters N       interleaved repetitions per configuration (default 5).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "effnet/model.h"
#include "ir/analysis.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "ir/verify.h"
#include "nn/lower.h"
#include "obs/json.h"
#include "tensor/tensor.h"

namespace {

using namespace podnet;
using nn::Rng;
using tensor::Shape;
using tensor::Tensor;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PassConfig {
  const char* name;
  bool use_ir;
  ir::PassOptions opts;
};

constexpr PassConfig kConfigs[] = {
    {"interp", false, {}},
    {"ir_nopass", true, {false, false, false}},
    {"ir_fold", true, {true, false, true}},
    {"ir_fold_fuse", true, {true, true, true}},
};

struct Row {
  std::string name;
  double ms_per_img = 0;  // median repetition
  double p10_ms_per_img = 0;
  double p90_ms_per_img = 0;
  double speedup_vs_interp = 1.0;
  std::int64_t arena_bytes = 0;          // 0 for the interpreter row
  std::int64_t no_reuse_bytes = 0;       // ditto
  std::int64_t interp_scratch_bytes = 0; // interpreter col_scratch sum
  double max_rel_err = 0;                // vs the interpreter logits
  double lower_pass_us = 0;              // lower_to_program + run_passes
  double analysis_us = 0;                // full static gate re-run
};

double max_rel_err(const Tensor& got, const Tensor& want) {
  double worst = 0;
  for (tensor::Index i = 0; i < got.numel(); ++i) {
    const double w = want.data()[i];
    const double e =
        std::fabs(got.data()[i] - w) / (1e-6 + std::fabs(w));
    if (e > worst) worst = e;
  }
  return worst;
}

// Value at fraction q of the sorted samples (nearest rank).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[i];
}

std::vector<Row> run_model(const std::string& model_name,
                           tensor::Index resolution, tensor::Index batch,
                           int iters) {
  effnet::ModelSpec spec = effnet::by_name(model_name);
  if (resolution > 0) spec.resolution = resolution;
  effnet::ModelOptions mopts;
  mopts.num_classes = 1000;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(5);
  const Tensor x =
      Tensor::randn(Shape{batch, spec.resolution, spec.resolution, 3}, rng);

  struct Config {
    Row row;
    ir::Program prog;
    std::unique_ptr<ir::Executor> exec;
    Tensor logits;
    std::vector<double> ms_per_img;
  };
  std::vector<Config> configs(std::size(kConfigs));
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const PassConfig& cfg = kConfigs[c];
    Config& k = configs[c];
    k.row.name = std::string(model_name) + "_eval_" + cfg.name;
    if (cfg.use_ir) {
      const double l0 = now_s();
      k.prog = nn::lower_to_program(model);
      ir::run_passes(k.prog, cfg.opts);
      k.row.lower_pass_us = 1e6 * (now_s() - l0);
      k.exec = std::make_unique<ir::Executor>(k.prog);
    }
  }
  const auto forward = [&](Config& k) {
    k.logits = k.exec ? k.exec->run(x) : model.forward(x, /*training=*/false);
  };
  // Warm-up: binds the arenas, grows the interpreter scratch and the pack
  // buffers, and brings every configuration's weights through the cache.
  for (int w = 0; w < 2; ++w) {
    for (Config& k : configs) forward(k);
  }
  for (int i = 0; i < iters; ++i) {
    for (Config& k : configs) {
      const double t0 = now_s();
      forward(k);
      k.ms_per_img.push_back(1e3 * (now_s() - t0) /
                             static_cast<double>(batch));
    }
  }

  const Config& interp = configs.front();
  std::vector<Row> rows;
  for (Config& k : configs) {
    Row& row = k.row;
    row.ms_per_img = quantile(k.ms_per_img, 0.5);
    row.p10_ms_per_img = quantile(k.ms_per_img, 0.1);
    row.p90_ms_per_img = quantile(k.ms_per_img, 0.9);
    row.interp_scratch_bytes = model.scratch_bytes();
    if (k.exec) {
      row.arena_bytes = k.exec->stats().arena_bytes;
      row.no_reuse_bytes = k.exec->stats().no_reuse_bytes;
      row.speedup_vs_interp = interp.row.ms_per_img / row.ms_per_img;
      row.max_rel_err = max_rel_err(k.logits, interp.logits);
      // Cost of the recurring structural gate, re-run standalone against
      // the executor's bound plan: SSA/attribute verification, shape
      // inference, the per-op scratch table, and plan certification.
      // This is the work every compile (and recompile after a pass
      // change) pays. The parameter-data finiteness scan (assert_ranges)
      // is a one-time per-model validation the executor performs at
      // construction, so it is deliberately outside this column.
      // Budget: analysis_us < 5% of lower_pass_us.
      const double a0 = now_s();
      ir::verify(k.prog);
      const std::vector<Shape> shapes = ir::infer_shapes(k.prog, x.shape());
      const std::vector<std::int64_t> scratch = ir::op_scratch_floats(
          k.prog, shapes, ir::default_conv_strategy());
      ir::certify_plan(k.prog, shapes, scratch, k.exec->plan());
      row.analysis_us = 1e6 * (now_s() - a0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-28s %10s %10s %10s %8s %14s %14s %10s %12s %12s\n",
              "config", "p10 ms/img", "p50 ms/img", "p90 ms/img", "speedup",
              "arena_bytes", "no_reuse", "max_rel", "lower_us",
              "analysis_us");
  for (const Row& r : rows) {
    std::printf("%-28s %10.3f %10.3f %10.3f %7.2fx %14lld %14lld %10.2e "
                "%12.1f %12.1f\n",
                r.name.c_str(), r.p10_ms_per_img, r.ms_per_img,
                r.p90_ms_per_img, r.speedup_vs_interp,
                static_cast<long long>(r.arena_bytes),
                static_cast<long long>(r.no_reuse_bytes), r.max_rel_err,
                r.lower_pass_us, r.analysis_us);
  }
  std::printf("interpreter col_scratch high-water: %lld bytes\n",
              static_cast<long long>(rows.front().interp_scratch_bytes));
}

int append_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  for (const Row& r : rows) {
    obs::JsonWriter w;
    w.field("kind", "ir_bench")
        .field("name", r.name)
        .field("ms_per_img", r.ms_per_img)
        .field("p10_ms_per_img", r.p10_ms_per_img)
        .field("p90_ms_per_img", r.p90_ms_per_img)
        .field("img_per_ms", r.ms_per_img > 0 ? 1.0 / r.ms_per_img : 0.0)
        .field("speedup_vs_interp", r.speedup_vs_interp)
        .field("arena_bytes", r.arena_bytes)
        .field("no_reuse_bytes", r.no_reuse_bytes)
        .field("interp_scratch_bytes", r.interp_scratch_bytes)
        .field("max_rel_err", r.max_rel_err)
        .field("lower_pass_us", r.lower_pass_us)
        .field("analysis_us", r.analysis_us);
    out << w.str() << '\n';
  }
  out.close();
  std::size_t lines = 0;
  std::string error;
  if (!obs::validate_jsonl_file(path, &lines, &error)) {
    std::fprintf(stderr, "JSONL validation failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("appended %zu ir_bench rows to %s (validated, %zu lines)\n",
              rows.size(), path.c_str(), lines);
  return 0;
}

// --smoke: pico-sized correctness gate — parity with the interpreter and
// a real arena-reuse win, independent of host speed.
int run_smoke() {
  const std::vector<Row> rows = run_model("pico", 0, 4, 2);
  int failures = 0;
  for (const Row& r : rows) {
    if (r.name.find("interp") != std::string::npos) continue;
    if (r.max_rel_err > 5e-3) {
      std::printf("ir_smoke FAIL: %s diverged from interpreter "
                  "(max_rel_err %.3g)\n",
                  r.name.c_str(), r.max_rel_err);
      ++failures;
    }
    if (r.arena_bytes <= 0 || r.arena_bytes >= r.no_reuse_bytes) {
      std::printf("ir_smoke FAIL: %s arena %lld vs no-reuse %lld — "
                  "planner produced no reuse win\n",
                  r.name.c_str(), static_cast<long long>(r.arena_bytes),
                  static_cast<long long>(r.no_reuse_bytes));
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("ir_smoke OK: %zu configurations match the interpreter "
                "and the arena beats no-reuse\n",
                rows.size() - 1);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string model_name = "b0";
  tensor::Index resolution = 0;
  tensor::Index batch = 2;
  int iters = 5;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--resolution" && i + 1 < argc) {
      resolution = static_cast<tensor::Index>(std::atoll(argv[++i]));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<tensor::Index>(std::atoll(argv[++i]));
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--model NAME] "
                   "[--resolution N] [--batch N] [--iters N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) return run_smoke();

  if (iters < 1 || batch < 1) {
    std::fprintf(stderr, "--iters and --batch must be at least 1\n");
    return 2;
  }
  const std::vector<Row> rows = run_model(model_name, resolution, batch, iters);
  print_rows(rows);
  if (!json_path.empty()) return append_json(rows, json_path);
  return 0;
}

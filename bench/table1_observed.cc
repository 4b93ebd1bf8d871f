// Table 1, observed — measured step-phase breakdown next to the analytic
// pod-model prediction, from one instrumented run per row.
//
// The harness uses the obs:: layer end to end: the trainer emits one
// {"kind":"step"} JSONL record per replica per step (phase wall times,
// counters, kernel spans under PODNET_PROFILE), tpu::model_run appends its
// {"kind":"model_run"} prediction for the same configuration, and a
// {"kind":"table1_row"} summary puts the measured images/ms and measured
// % of step time inside the gradient all-reduce side by side with the
// modeled numbers. Every row runs twice — "serial" (the historical
// blocking all-reduce) and "overlapped" (bucketed all-reduce hidden
// behind backward) — so the exposed-communication win is measured and
// modeled per slice size. Everything lands in one JSONL file, which the
// harness re-reads and validates before exiting — a malformed or torn
// line is a nonzero exit (the smoke-mode ctest tier relies on this).
//
// Flags:
//   --smoke       two small rows (pico@2, pico@4) on a tiny dataset; used by
//                 the table1_observed_smoke ctest
//   --out PATH    JSONL output path (default: table1_observed.jsonl)
//   --bucket-kb N override the overlap bucket size (KiB) for every row
//   --alg NAME    override the all-reduce algorithm for every row
//                 (flat | ring | halving_doubling | two_level |
//                  two_level_ring)
//   --row M:R:B   run a single row (model:replicas:per_replica_batch)
//                 instead of the built-in row list
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "tpu/pod_model.h"

namespace {

using namespace podnet;

struct Row {
  const char* model;
  int replicas;
  tensor::Index per_replica;
};

// Bucket size for the overlapped variant; 0 = auto-size to the model so
// each row pipelines ~6 buckets behind backward (the 4 MiB production
// default would put every bench-scale gradient in one bucket, and one
// fixed small size over-fragments the larger models into pure
// per-collective overhead).
std::size_t g_bucket_bytes = 0;

constexpr int kAutoBuckets = 6;
constexpr std::size_t kMinBucketBytes = 8u << 10;

// On the oversubscribed bench host, collective cost is rendezvous-latency
// bound, so the default algorithm is the lowest-synchronization one; both
// the serial and overlapped variants of a row use the same algorithm, so
// the exposed-time comparison stays apples-to-apples under --alg.
dist::AllReduceAlgorithm g_alg = dist::AllReduceAlgorithm::kFlat;

bool parse_alg(const char* name, dist::AllReduceAlgorithm* out) {
  for (int i = 0; i < dist::kNumAllReduceAlgorithms; ++i) {
    const auto alg = static_cast<dist::AllReduceAlgorithm>(i);
    if (dist::to_string(alg) == name) {
      *out = alg;
      return true;
    }
  }
  return false;
}

// Runs one (row, variant) cell and returns the measured average exposed
// all-reduce milliseconds per step.
double run_row(const Row& row, bool smoke, bool overlap,
               const std::shared_ptr<obs::MetricsSink>& sink) {
  core::TrainConfig c = bench::scaled_config(row.model);
  c.replicas = row.replicas;
  c.per_replica_batch = row.per_replica;
  if (smoke) {
    c.dataset.train_size = 256;
    c.dataset.eval_size = 64;
    c.epochs = 1.0;
  } else {
    // Enough steps that per-step phase averages are stable: large-replica
    // rows see few steps per epoch (global batch eats the dataset), so pad
    // epochs until the row covers ~48 optimizer steps.
    const double steps_per_epoch =
        static_cast<double>(c.dataset.train_size) /
        static_cast<double>(row.replicas * row.per_replica);
    c.epochs = std::max(2.0, 48.0 / std::max(1.0, steps_per_epoch));
  }
  c.eval_every_epochs = c.epochs;  // one eval, at the end
  bench::apply_lars_recipe(c, 4.0f, 1.0);
  c.metrics_sink = sink;
  c.overlap = overlap;
  c.allreduce = g_alg;

  // Analytic cost drives both the auto bucket size and the modeled columns.
  const effnet::ModelCost cost =
      effnet::analyze(c.spec, c.dataset.num_classes, c.dataset.resolution);
  const std::size_t bucket_bytes =
      g_bucket_bytes != 0
          ? g_bucket_bytes
          : std::max(kMinBucketBytes,
                     static_cast<std::size_t>(cost.gradient_bytes()) /
                         kAutoBuckets);
  c.bucket_bytes = bucket_bytes;

  const core::TrainResult r = core::train(c);
  const obs::PhaseTotals& t = r.phase_totals;

  // Measured (rank 0's phase totals; throughput counts all replicas'
  // images over rank 0's summed step time — ranks are barrier-coupled).
  const double global_images =
      static_cast<double>(t.images) * static_cast<double>(row.replicas);
  const double measured_img_per_ms =
      t.step_seconds > 0 ? global_images / (t.step_seconds * 1e3) : 0;
  const double measured_ar_pct = 100.0 * t.allreduce_fraction();
  const double measured_exposed_pct = 100.0 * t.exposed_allreduce_fraction();
  const double avg_step_ms =
      t.steps > 0 ? t.step_seconds * 1e3 / static_cast<double>(t.steps) : 0;
  const double exposed_ms_per_step =
      t.steps > 0 ? t.phase(obs::Phase::kAllReduceExposed) * 1e3 /
                        static_cast<double>(t.steps)
                  : 0;

  // Modeled: the same configuration priced on a TPU-v3 slice with one core
  // per replica thread (fp32, matching the executed precision).
  const tpu::PodSlice slice = tpu::make_slice(row.replicas);
  tpu::StepOptions sopts;
  sopts.per_core_batch = static_cast<int>(row.per_replica);
  sopts.bf16_convs = false;
  sopts.overlap_allreduce = overlap;
  sopts.bucket_bytes = static_cast<double>(bucket_bytes);
  const tpu::StepBreakdown sb =
      tpu::model_step(cost, slice, tpu::tpu_v3(), sopts);
  tpu::RunOptions ropts;
  ropts.epochs_to_peak = c.epochs;
  ropts.train_images = c.dataset.train_size;
  ropts.eval_images = c.dataset.eval_size;
  ropts.eval_every_epochs = c.eval_every_epochs;
  tpu::model_run(cost, slice, tpu::tpu_v3(), sopts, ropts, sink.get());

  const char* variant = overlap ? "overlapped" : "serial";
  {
    obs::JsonWriter w;
    w.field("kind", "table1_row")
        .field("model", row.model)
        .field("variant", variant)
        .field("cores", row.replicas)
        .field("global_batch", r.global_batch)
        .field("steps", t.steps)
        .field("algorithm", dist::to_string(g_alg))
        .field("bucket_bytes", static_cast<std::int64_t>(bucket_bytes));
    w.begin_object("measured")
        .field("img_per_ms", measured_img_per_ms)
        .field("allreduce_percent", measured_ar_pct)
        .field("allreduce_exposed_percent", measured_exposed_pct)
        .field("allreduce_exposed_ms_per_step", exposed_ms_per_step)
        .field("avg_step_ms", avg_step_ms)
        .field("allreduce_bytes", t.allreduce_bytes)
        .end_object();
    w.begin_object("modeled")
        .field("img_per_ms", sb.throughput_img_per_ms)
        .field("allreduce_percent", sb.allreduce_percent)
        .field("allreduce_exposed_ms", sb.exposed_allreduce_s * 1e3)
        .field("step_ms", sb.step_s * 1e3)
        .end_object();
    sink->write_line(w.str());
  }

  std::printf(
      "%-6s %-10s %6d %8lld   %10.2f %9.2f%% %9.2f%%   %12.2f %10.2f%%\n",
      row.model, variant, row.replicas,
      static_cast<long long>(r.global_batch), measured_img_per_ms,
      measured_ar_pct, measured_exposed_pct, sb.throughput_img_per_ms,
      sb.allreduce_percent);
  std::fflush(stdout);
  return exposed_ms_per_step;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Serial/overlapped pair for one row; prints the exposed-time win. Full
// mode interleaves three repetitions of each variant and compares medians:
// per-step rendezvous cost on an oversubscribed host is dominated by
// scheduler skew that drifts on a seconds timescale, so back-to-back
// interleaving plus a median cancels what more steps per run cannot.
void run_pair(const Row& row, bool smoke,
              const std::shared_ptr<obs::MetricsSink>& sink) {
  const int reps = smoke ? 1 : 3;
  std::vector<double> serial_runs, overlap_runs;
  for (int rep = 0; rep < reps; ++rep) {
    serial_runs.push_back(run_row(row, smoke, /*overlap=*/false, sink));
    overlap_runs.push_back(run_row(row, smoke, /*overlap=*/true, sink));
  }
  const double serial_ms = median(serial_runs);
  const double overlap_ms = median(overlap_runs);
  const double reduction =
      serial_ms > 0 ? 100.0 * (1.0 - overlap_ms / serial_ms) : 0;
  std::printf(
      "%-6s exposed all-reduce: %.3f -> %.3f ms/step (%.1f%% lower "
      "overlapped, median of %d)\n\n",
      row.model, serial_ms, overlap_ms, reduction, reps);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "table1_observed.jsonl";
  std::string row_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--bucket-kb") == 0 && i + 1 < argc) {
      g_bucket_bytes = static_cast<std::size_t>(std::atol(argv[++i])) << 10;
    } else if (std::strcmp(argv[i], "--alg") == 0 && i + 1 < argc) {
      if (!parse_alg(argv[++i], &g_alg)) {
        std::fprintf(stderr, "unknown --alg %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--row") == 0 && i + 1 < argc) {
      row_spec = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out PATH] [--bucket-kb N] "
                   "[--alg NAME] [--row MODEL:REPLICAS:BATCH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf(
      "Table 1 (observed): measured phase breakdown vs pod-model "
      "prediction\n(step records -> %s)\n\n",
      out.c_str());
  std::printf("%-6s %-10s %6s %8s   %10s %10s %10s   %12s %11s\n", "model",
              "variant", "cores", "GB", "meas img/ms", "meas AR%", "exposed%",
              "model img/ms", "model AR%");
  bench::print_rule(96);

  std::shared_ptr<obs::MetricsSink> sink = obs::make_jsonl_sink(out);
  if (!row_spec.empty()) {
    static char model_buf[16] = {};
    int replicas = 0;
    long batch = 0;
    if (std::sscanf(row_spec.c_str(), "%15[^:]:%d:%ld", model_buf, &replicas,
                    &batch) != 3 ||
        replicas < 1 || batch < 1) {
      std::fprintf(stderr, "bad --row %s (want MODEL:REPLICAS:BATCH)\n",
                   row_spec.c_str());
      return 2;
    }
    run_pair({model_buf, replicas, static_cast<tensor::Index>(batch)}, smoke,
             sink);
  } else if (smoke) {
    run_pair({"pico", 2, 16}, smoke, sink);
    run_pair({"pico", 4, 16}, smoke, sink);
  } else {
    // Per-replica batch 16 keeps per-step compute short enough that
    // scheduler skew at the rendezvous doesn't swamp the collective cost
    // on an oversubscribed host; the global batch still doubles per row.
    for (int replicas : {2, 4, 8}) {
      run_pair({"pico", replicas, 16}, smoke, sink);
    }
    run_pair({"nano", 4, 16}, smoke, sink);
  }
  sink->flush();

  std::size_t lines = 0;
  std::string error;
  if (!obs::validate_jsonl_file(out, &lines, &error)) {
    std::fprintf(stderr, "FAIL: %s is not valid JSONL: %s\n", out.c_str(),
                 error.c_str());
    return 1;
  }
  if (lines == 0) {
    std::fprintf(stderr, "FAIL: %s contains no records\n", out.c_str());
    return 1;
  }
  std::printf("\n%zu JSONL records in %s (validated)\n", lines, out.c_str());
  std::printf(
      "\nMeasured columns come from obs::PhaseTotals (rank 0); modeled "
      "columns from\ntpu::model_step on a slice with one v3 core per "
      "replica thread. Absolute\nvalues differ by construction — the "
      "structural checks are the all-reduce share\nordering across rows "
      "and the exposed-time drop of the overlapped variant\nat each slice "
      "size.\n");
  return 0;
}

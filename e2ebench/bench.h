// Shared declarations of the end-to-end training benchmark.
//
// The benchmark drives PodNet only through its public headers: the
// end-to-end mode calls core::train, and the traced mode replays one
// workload's step through the public functions of each module with spans
// recorded here, never inside src/. See README.md for the metric
// definitions and why each workload exists.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trainer.h"

namespace e2ebench {

using namespace podnet;

// A named, fully pinned training configuration.
struct Workload {
  const char* name;
  int threads;          // PODNET_THREADS for the process
  double top1_target;   // time_to_target_s: first eval at or above this
  double top1_floor;    // output check on the mean peak top-1 of the seeds
  // Seeds trained per run, derived from the run's seed: quality metrics
  // and time to target are averaged over them, which keeps a run's result
  // from hinging on one seed's luck.
  int sub_seeds;
  // The configuration for one seed; files go under `scratch`.
  core::TrainConfig (*make)(std::uint64_t seed, const std::string& scratch);
  // Optional preparation run before timing (nullptr: none). It writes the
  // checkpoint that make()'s configuration starts from.
  core::TrainConfig (*pretrain)(std::uint64_t seed, const std::string& scratch);
};

// The seed of sub-seed `j` of a run with seed `seed`.
inline std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return seed * 1000 + static_cast<std::uint64_t>(j);
}

// nullptr when the name is unknown.
const Workload* find_workload(const std::string& name);

// One metric of the final result line.
struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

// Outcome of one benchmark run: the fields of the final JSON line.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string scratch;  // directory for checkpoints and trace files
};

RunResult run_end_to_end(const Options& opts);
RunResult run_traced(const Options& opts);

// Records a failed output check: prints it and bumps result.failed.
void fail_check(RunResult& result, const std::string& what);

// Peak resident memory of this process so far, in MB.
double peak_rss_mb();

// ---- Order statistics ------------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]) of unsorted values.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- Step records ----------------------------------------------------------

// One obs::StepMetrics JSONL record as the trainer's sink emitted it, with
// the time it arrived (seconds since the train() call).
struct StepRecord {
  double arrival_s = 0;
  int rank = 0;
  std::int64_t step = 0;
  double epoch = 0;
  int restarts = 0;
  int recovery_event = 0;
  int world_size = 0;
  std::int64_t images = 0;
  double loss = 0;
  double step_ms = 0;
  std::map<std::string, double> phases_ms;
};

// Directory of sub-seed `j`'s checkpoints under the run's scratch directory.
inline std::string seed_dir(const Options& opts, int j) {
  return opts.scratch + "/seed" + std::to_string(j);
}

// Runs the workload's preparation for one seed, if it has one, in its own
// process (--prepare) before the measured one: it writes the checkpoint the
// workload starts from, and the first training step's loss of that run.
void prepare_seed(const Workload& w, std::uint64_t seed,
                  const std::string& scratch);
// The first-step loss a preparation left in `scratch` (NaN for a workload
// without one): a workload that starts from trained weights checks its
// loss against it. Throws when the preparation has not run.
double prepared_first_loss(const Workload& w, const std::string& scratch);

// Calls core::train with an in-memory metrics sink attached and returns the
// result together with every step record, in arrival order.
struct ObservedRun {
  core::TrainResult result;
  std::vector<StepRecord> records;
  double wall_s = 0;  // the whole train() call
};
ObservedRun observed_train(core::TrainConfig config);

// Seconds from the train() call until the first step began: arrival of the
// first step record minus that step's own duration.
double setup_seconds(const ObservedRun& run);

// Supervisor stall of a rolled-back run: from the arrival of the failed
// attempt's last step record to the start of the first step of the
// recovered attempt (its record's arrival minus its duration). -1 when the
// run did not recover.
double recovery_stall_seconds(const ObservedRun& run);

}  // namespace e2ebench

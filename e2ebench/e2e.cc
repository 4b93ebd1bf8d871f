// End-to-end mode: repeated core::train calls on one workload, timed from
// outside the program, with the output checks of every call.
//
// A run trains the workload's sub-seeds in rounds (every sub-seed once per
// round) until --seconds have passed. A seed's repeats must train bit for
// bit the same model; a run too short to repeat any seed repeats the first
// one once more, untimed, to check it.
// Timings are medians over all calls. Quality metrics are per-sub-seed
// values (repeats of a seed train bit for bit the same model) averaged over
// the sub-seeds. Time to target is the median over the sub-seeds of each
// one's median: a seed that needs one more eval than most is a jump of a
// whole eval interval, which a median absorbs and a mean does not.
//
// A workload's preparation runs in an earlier process (--prepare), so the
// peak resident memory of this one covers only the timed calls.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench.h"

namespace e2ebench {
namespace {

// Set-up time is one sample per call; a run takes at least this many.
constexpr std::size_t kMinSetupSamples = 5;

struct CallSample {
  std::size_t seed = 0;  // sub-seed index
  double setup_s = 0;
  double time_to_target_s = 0;  // the whole call when the target is missed
  bool reached_target = false;
  double train_img_per_s = 0;
  double eval_img_per_s = 0;
  double recovery_stall_s = -1;
  double failed_step_share = 0;
  std::vector<double> step_ms;  // rank 0
};

// What the first call of a sub-seed produced; later calls must repeat it.
struct SeedState {
  core::TrainConfig config;
  double first_loss_floor = NAN;  // a preparation run's first-step loss
  double top1 = 0;
  double final_loss = 0;
  std::vector<core::EvalPoint> history;
  std::vector<std::uint8_t> weights;  // final checkpoint, when written
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

CallSample analyze(const ObservedRun& run, const SeedState& seed,
                   const Workload& w, RunResult& out) {
  const core::TrainConfig& config = seed.config;
  CallSample s;
  s.setup_s = setup_seconds(run);
  s.recovery_stall_s = recovery_stall_seconds(run);
  const std::int64_t attempted_steps =
      run.result.total_steps + run.result.failed_steps;
  s.failed_step_share =
      attempted_steps > 0 ? static_cast<double>(run.result.failed_steps) /
                                static_cast<double>(attempted_steps)
                          : 0;

  double images = 0, step_s = 0, eval_s = 0, first_loss = NAN;
  int evals = 0;
  for (const StepRecord& r : run.records) {
    if (r.rank != 0) continue;
    if (std::isnan(first_loss)) first_loss = r.loss;
    images += static_cast<double>(r.images) * r.world_size;
    step_s += r.step_ms * 1e-3;
    s.step_ms.push_back(r.step_ms);
    const double e = r.phases_ms.at("eval");
    if (e > 0) {
      eval_s += e * 1e-3;
      ++evals;
    }
  }
  s.train_img_per_s = step_s > 0 ? images / step_s : 0;
  s.eval_img_per_s =
      eval_s > 0 ? evals * static_cast<double>(config.dataset.eval_size) / eval_s
                 : 0;

  // The paper's headline metric: wall time from the call to the end of the
  // first eval that reaches the target, recovery included. A rolled-back
  // eval is replayed, so the surviving one is the last record at its epoch.
  s.time_to_target_s = run.wall_s;
  for (const core::EvalPoint& p : run.result.history) {
    if (p.eval_accuracy < w.top1_target) continue;
    for (const StepRecord& r : run.records) {
      if (r.rank == 0 && r.phases_ms.at("eval") > 0 &&
          std::fabs(r.epoch - p.epoch) < 1e-9) {
        s.time_to_target_s = r.arrival_s;
        s.reached_target = true;
      }
    }
    break;
  }

  const double final_loss = run.result.final_train_loss;
  // Training must have lowered the loss: below the first step of this run,
  // or of the preparation run when the workload starts from trained weights.
  const double loss_ceiling =
      std::isnan(seed.first_loss_floor) ? first_loss : seed.first_loss_floor;
  if (!std::isfinite(final_loss) || !(final_loss < loss_ceiling)) {
    fail_check(out, "final train loss " + std::to_string(final_loss) +
                        " is not finite and below the first step's " +
                        std::to_string(loss_ceiling));
  }
  const int want_restarts = config.faults.empty() ? 0 : 1;
  if (run.result.restarts != want_restarts) {
    fail_check(out, "expected " + std::to_string(want_restarts) +
                        " restart(s), got " +
                        std::to_string(run.result.restarts));
  }
  return s;
}

// Checks a call against the first call of its sub-seed (or records it).
void check_repeat(const ObservedRun& run, SeedState& seed, bool first,
                  RunResult& out) {
  std::vector<std::uint8_t> weights;
  if (!seed.config.checkpoint_path.empty()) {
    weights = read_file(seed.config.checkpoint_path);
  }
  if (first) {
    seed.top1 = run.result.peak_accuracy;
    seed.final_loss = run.result.final_train_loss;
    seed.history = run.result.history;
    seed.weights = std::move(weights);
    return;
  }
  // A fixed seed trains bit for bit the same model, recovery included.
  if (run.result.final_train_loss != seed.final_loss ||
      run.result.peak_accuracy != seed.top1 || weights != seed.weights) {
    fail_check(out, "a repeat call with the same seed diverged");
  }
}

std::vector<double> column(const std::vector<CallSample>& calls,
                           double CallSample::*field) {
  std::vector<double> v;
  for (const CallSample& c : calls) v.push_back(c.*field);
  return v;
}

}  // namespace

RunResult run_end_to_end(const Options& opts) {
  const Workload& w = *opts.workload;
  RunResult out;
  std::vector<SeedState> seeds(static_cast<std::size_t>(w.sub_seeds));
  for (int j = 0; j < w.sub_seeds; ++j) {
    const std::string dir = seed_dir(opts, j);
    std::filesystem::create_directories(dir);
    SeedState& s = seeds[static_cast<std::size_t>(j)];
    s.first_loss_floor = prepared_first_loss(w, dir);
    s.config = w.make(sub_seed(opts.seed, j), dir);
  }

  std::vector<CallSample> calls;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  int rounds = 0;
  do {
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      SeedState& seed = seeds[j];
      ++out.attempted;
      const std::int64_t failed_before = out.failed;
      const ObservedRun run = observed_train(seed.config);
      calls.push_back(analyze(run, seed, w, out));
      calls.back().seed = j;
      const CallSample& c = calls.back();
      std::printf("call %zu sub-seed %zu: %.1f img/s  step p50 %.3f ms  "
                  "to target %.3f s  setup %.6f s\n",
                  calls.size(), j, c.train_img_per_s,
                  median(c.step_ms), c.time_to_target_s, c.setup_s);
      check_repeat(run, seed, rounds == 0, out);
      // One failed operation per call, however many of its checks failed.
      if (out.failed > failed_before) out.failed = failed_before + 1;
    }
    ++rounds;
  } while (calls.size() < kMinSetupSamples || elapsed() < opts.seconds);
  const double rss_mb = peak_rss_mb();
  if (rounds == 1) {
    ++out.attempted;
    check_repeat(observed_train(seeds.front().config), seeds.front(), false,
                 out);
  }

  const SeedState& seed0 = seeds.front();
  if (!seed0.config.faults.empty()) {
    // Bit-exact resume: the recovered run's final weights equal those of
    // a fault-free run of the same seed.
    ++out.attempted;
    core::TrainConfig clean = seed0.config;
    clean.faults = dist::FaultPlan{};
    clean.checkpoint_path += ".clean";
    const core::TrainResult r = core::train(clean);
    if (r.restarts != 0 || read_file(clean.checkpoint_path) != seed0.weights) {
      fail_check(out, "recovered weights differ from a fault-free run");
    }
  }
  if (seed0.config.ir_eval) {
    // The compiled eval must score exactly what the interpreter scores on
    // the same weights; training itself is unaffected by the eval path.
    ++out.attempted;
    core::TrainConfig interp = seed0.config;
    interp.ir_eval = false;
    const core::TrainResult r = core::train(interp);
    bool same = r.history.size() == seed0.history.size();
    for (std::size_t i = 0; same && i < r.history.size(); ++i) {
      same = r.history[i].eval_accuracy == seed0.history[i].eval_accuracy &&
             r.history[i].train_loss == seed0.history[i].train_loss;
    }
    if (!same) fail_check(out, "IR eval top-1 differs from the interpreter");
  }

  std::vector<double> top1, loss, ttt;
  std::size_t reached = 0;
  for (std::size_t j = 0; j < seeds.size(); ++j) {
    top1.push_back(seeds[j].top1);
    loss.push_back(seeds[j].final_loss);
    if (calls[j].reached_target) ++reached;
  }
  // Quality is judged over the sub-seeds: a synthetic task can draw two
  // near-identical class textures, which caps that seed's accuracy. The
  // floor applies to the mean top-1, and most seeds must reach the target
  // (a seed that misses it counts its whole call as its time to target).
  ++out.attempted;
  if (mean(top1) < w.top1_floor || 2 * reached < seeds.size()) {
    fail_check(out, "mean peak top-1 " + std::to_string(mean(top1)) +
                        " (floor " + std::to_string(w.top1_floor) + "); " +
                        std::to_string(reached) + " of " +
                        std::to_string(seeds.size()) +
                        " seeds reached the target " +
                        std::to_string(w.top1_target));
  }

  std::vector<double> steps;
  for (const CallSample& c : calls) {
    steps.insert(steps.end(), c.step_ms.begin(), c.step_ms.end());
  }
  for (std::size_t j = 0; j < seeds.size(); ++j) {
    std::vector<double> mine;
    for (const CallSample& c : calls) {
      if (c.seed == j) mine.push_back(c.time_to_target_s);
    }
    ttt.push_back(median(mine));
  }
  Metrics& m = out.metrics;
  m["train_img_per_s"] = {median(column(calls, &CallSample::train_img_per_s)),
                          "img/s"};
  m["step_ms_p50"] = {quantile(steps, 0.5), "ms"};
  m["step_ms_p90"] = {quantile(steps, 0.9), "ms"};
  m["eval_img_per_s"] = {median(column(calls, &CallSample::eval_img_per_s)),
                         "img/s"};
  m["time_to_target_s"] = {median(ttt), "s"};
  m["eval_top1"] = {mean(top1), "fraction"};
  m["final_train_loss"] = {mean(loss), "nats"};
  m["setup_s"] = {median(column(calls, &CallSample::setup_s)), "s"};
  m["peak_rss_mb"] = {rss_mb, "MB"};

  std::printf(
      "calls %zu over %d sub-seed(s); rank-0 step samples %zu\n",
      calls.size(), w.sub_seeds, steps.size());
  if (!seed0.config.faults.empty()) {
    std::printf("recovery_stall_s %.6f  failed_step_share %.6f\n",
                median(column(calls, &CallSample::recovery_stall_s)),
                median(column(calls, &CallSample::failed_step_share)));
  }
  return out;
}

}  // namespace e2ebench

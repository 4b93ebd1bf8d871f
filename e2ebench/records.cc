// In-memory metrics sink: timestamps each step record on arrival and
// parses it after the run, so the trainer's hot path pays only a string
// push under a mutex.
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/sink.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

class RecordingSink final : public obs::MetricsSink {
 public:
  explicit RecordingSink(Clock::time_point origin) : origin_(origin) {}

  void write_line(const std::string& json_object) override {
    const double t =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    std::lock_guard<std::mutex> lock(mu_);
    lines_.emplace_back(t, json_object);
  }

  std::vector<std::pair<double, std::string>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(lines_);
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::pair<double, std::string>> lines_;
};

// Number following `"key":` in a flat JSON object; throws when absent.
double number_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("step record lacks '" + key + "': " + line);
  }
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

StepRecord parse_record(double arrival_s, const std::string& line) {
  StepRecord r;
  r.arrival_s = arrival_s;
  r.rank = static_cast<int>(number_field(line, "rank"));
  r.step = static_cast<std::int64_t>(number_field(line, "step"));
  r.epoch = number_field(line, "epoch");
  r.restarts = static_cast<int>(number_field(line, "restarts"));
  r.recovery_event = static_cast<int>(number_field(line, "recovery_event"));
  r.world_size = static_cast<int>(number_field(line, "world_size"));
  r.images = static_cast<std::int64_t>(number_field(line, "images"));
  r.loss = number_field(line, "loss");
  r.step_ms = number_field(line, "step_ms");
  const std::string open = "\"phases_ms\":{";
  std::size_t pos = line.find(open);
  if (pos == std::string::npos) {
    throw std::runtime_error("step record lacks phases_ms: " + line);
  }
  pos += open.size();
  while (pos < line.size() && line[pos] == '"') {
    const std::size_t name_end = line.find('"', pos + 1);
    const std::string name = line.substr(pos + 1, name_end - pos - 1);
    char* end = nullptr;
    r.phases_ms[name] = std::strtod(line.c_str() + name_end + 2, &end);
    pos = static_cast<std::size_t>(end - line.c_str());
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return r;
}

}  // namespace

ObservedRun observed_train(core::TrainConfig config) {
  const Clock::time_point t0 = Clock::now();
  auto sink = std::make_shared<RecordingSink>(t0);
  config.metrics_sink = sink;
  ObservedRun run;
  run.result = core::train(config);
  run.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& [t, line] : sink->take()) {
    run.records.push_back(parse_record(t, line));
  }
  return run;
}

double setup_seconds(const ObservedRun& run) {
  if (run.records.empty()) return run.wall_s;
  const StepRecord& first = run.records.front();
  return first.arrival_s - first.step_ms * 1e-3;
}

double recovery_stall_seconds(const ObservedRun& run) {
  for (std::size_t i = 1; i < run.records.size(); ++i) {
    const StepRecord& r = run.records[i];
    if (r.recovery_event != 1) continue;
    double last_failed = -1;
    for (std::size_t j = 0; j < i; ++j) {
      if (run.records[j].restarts < r.restarts) {
        last_failed = run.records[j].arrival_s;
      }
    }
    if (last_failed < 0) return -1;
    return r.arrival_s - r.step_ms * 1e-3 - last_failed;
  }
  return -1;
}

}  // namespace e2ebench

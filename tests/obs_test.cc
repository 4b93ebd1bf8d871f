// Tests for the obs:: observability layer (timers, trace spans, JSON
// emission/validation, sinks) and its integration with core::train.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace {

using namespace podnet;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Occurrences of the exact JSON key `"name":` in a line.
int count_key(const std::string& line, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  int n = 0;
  for (std::size_t pos = line.find(needle); pos != std::string::npos;
       pos = line.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Integer value of a top-level `"key":<int>` field (first occurrence).
long long int_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + needle.size()));
}

// ---- Timer -----------------------------------------------------------------

TEST(TimerTest, MonotoneAndNonNegative) {
  obs::Timer t;
  double prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const double s = t.seconds();
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_GE(prev, 0.0);
}

TEST(TimerTest, LapSlicesCoverTheWindow) {
  obs::Timer total;
  obs::Timer t;
  double sum = 0;
  for (int i = 0; i < 100; ++i) sum += t.lap();
  // Laps tile the window with no gaps; the only slack is the final
  // unread partial lap.
  EXPECT_LE(sum, total.seconds());
  EXPECT_GE(sum, 0.0);
}

TEST(TimerTest, ClockSecondsNeverDecreases) {
  double prev = obs::clock_seconds();
  for (int i = 0; i < 1000; ++i) {
    const double now = obs::clock_seconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---- Trace spans -----------------------------------------------------------

TEST(TraceTest, NestedSpansRecordDepthAndCloseOrder) {
  (void)obs::drain_spans();
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
    }
  }
  const std::vector<obs::Span> spans = obs::drain_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Children close before parents.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0);
  // The parent's window contains the child's.
  EXPECT_LE(spans[1].begin_s, spans[0].begin_s);
  EXPECT_GE(spans[1].end_s, spans[0].end_s);
}

TEST(TraceTest, DrainClearsTheBuffer) {
  { obs::TraceSpan s("once"); }
  EXPECT_FALSE(obs::drain_spans().empty());
  EXPECT_TRUE(obs::drain_spans().empty());
}

TEST(TraceTest, SpansAreThreadConfined) {
  (void)obs::drain_spans();
  std::vector<obs::Span> worker_spans;
  std::thread worker([&] {
    { obs::TraceSpan s("worker"); }
    worker_spans = obs::drain_spans();
  });
  worker.join();
  ASSERT_EQ(worker_spans.size(), 1u);
  EXPECT_STREQ(worker_spans[0].name, "worker");
  // The worker's span never shows up in this thread's buffer.
  EXPECT_TRUE(obs::drain_spans().empty());
}

TEST(TraceTest, FullBufferDropsAndCounts) {
  (void)obs::drain_spans();
  for (std::size_t i = 0; i < obs::kMaxSpansPerThread + 100; ++i) {
    obs::TraceSpan s("spin");
  }
  EXPECT_EQ(obs::dropped_spans(), 100u);
  const std::vector<obs::Span> spans = obs::drain_spans();
  EXPECT_EQ(spans.size(), obs::kMaxSpansPerThread);
  EXPECT_EQ(obs::dropped_spans(), 0u);  // drain resets the counter
}

TEST(TraceTest, AggregateMergesByNameSorted) {
  std::vector<obs::Span> spans = {
      {"gemm", 0.0, 1.0, 0},
      {"conv2d.forward", 1.0, 1.5, 0},
      {"gemm", 2.0, 2.25, 1},
  };
  const std::vector<obs::SpanTotal> totals = obs::aggregate_spans(spans);
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "conv2d.forward");
  EXPECT_EQ(totals[0].calls, 1);
  EXPECT_DOUBLE_EQ(totals[0].seconds, 0.5);
  EXPECT_EQ(totals[1].name, "gemm");
  EXPECT_EQ(totals[1].calls, 2);
  EXPECT_DOUBLE_EQ(totals[1].seconds, 1.25);
}

// ---- JSON writer / validator -----------------------------------------------

TEST(JsonTest, WriterProducesValidNestedObject) {
  obs::JsonWriter w;
  w.field("a", std::int64_t{1}).field("b", 2.5).field("c", true);
  w.begin_object("o").field("x", "y").end_object();
  w.begin_array("arr");
  w.begin_object().field("k", std::int64_t{7}).end_object();
  w.begin_object().field("k", std::int64_t{8}).end_object();
  w.end_array();
  const std::string s = w.str();
  EXPECT_TRUE(obs::is_json_object(s)) << s;
  EXPECT_NE(s.find("\"arr\":[{"), std::string::npos) << s;
}

TEST(JsonTest, StringsAreEscaped) {
  obs::JsonWriter w;
  w.field("k", "quote\" backslash\\ newline\n tab\t ctrl\x01");
  const std::string s = w.str();
  EXPECT_TRUE(obs::is_json_object(s)) << s;
  EXPECT_NE(s.find("\\\""), std::string::npos);
  EXPECT_NE(s.find("\\\\"), std::string::npos);
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_NE(s.find("\\u0001"), std::string::npos);
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.field("nan", std::nan("")).field("inf", HUGE_VAL);
  const std::string s = w.str();
  EXPECT_TRUE(obs::is_json_object(s)) << s;
  EXPECT_NE(s.find("\"nan\":null"), std::string::npos) << s;
  EXPECT_NE(s.find("\"inf\":null"), std::string::npos) << s;
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(obs::is_json_object(
      "  {\"a\": [1, -2.5e-3, true, false, null, {\"b\":\"c\"}]} "));
  EXPECT_TRUE(obs::is_json_object("{}"));
  EXPECT_FALSE(obs::is_json_object(""));
  EXPECT_FALSE(obs::is_json_object("{"));
  EXPECT_FALSE(obs::is_json_object("{\"a\":}"));
  EXPECT_FALSE(obs::is_json_object("[1,2]"));  // array, not object
  EXPECT_FALSE(obs::is_json_object("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::is_json_object("{'a':1}"));
  EXPECT_FALSE(obs::is_json_object("{\"a\":1,}"));
}

TEST(JsonTest, ValidateJsonlFileFlagsTornLine) {
  const std::string path = temp_path("torn.jsonl");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"ok\":1}\n"
      << "{\"torn\":tr\n"  // crash mid-write
      << "{\"ok\":2}\n";
  }
  std::size_t lines = 0;
  std::string error;
  EXPECT_FALSE(obs::validate_jsonl_file(path, &lines, &error));
  EXPECT_FALSE(error.empty());
}

// ---- Sinks -----------------------------------------------------------------

TEST(JsonlSinkTest, TruncatesByDefaultAndAppendsOnRequest) {
  const std::string path = temp_path("sink_basic.jsonl");
  {
    obs::JsonlSink sink(path);
    sink.write_line("{\"n\":0}");
    sink.write_line("{\"n\":1}");
  }
  EXPECT_EQ(read_lines(path).size(), 2u);
  {
    obs::JsonlSink sink(path, /*append=*/true);
    sink.write_line("{\"n\":2}");
  }
  EXPECT_EQ(read_lines(path).size(), 3u);
  {
    obs::JsonlSink sink(path);  // fresh run truncates
    sink.write_line("{\"n\":3}");
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"n\":3}");
}

TEST(JsonlSinkTest, ConcurrentWritersNeverTearLines) {
  const std::string path = temp_path("sink_concurrent.jsonl");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    obs::JsonlSink sink(path);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&sink, t] {
        for (int i = 0; i < kPerThread; ++i) {
          obs::JsonWriter w;
          w.field("thread", t).field("i", i);
          w.field("pad", "padding-padding-padding-padding-padding");
          sink.write_line(w.str());
        }
      });
    }
    for (auto& w : writers) w.join();
    sink.flush();
  }
  std::size_t lines = 0;
  std::string error;
  ASSERT_TRUE(obs::validate_jsonl_file(path, &lines, &error)) << error;
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads * kPerThread));
}

// ---- StepMetrics encoding ---------------------------------------------------

TEST(StepMetricsTest, JsonCarriesEveryPhaseExactlyOnce) {
  obs::StepMetrics m;
  m.step = 7;
  m.rank = 1;
  m.images = 32;
  m.step_s = 0.25;
  for (int p = 0; p < obs::kPhaseCount; ++p) m.phase_s[p] = 0.01 * (p + 1);
  m.kernels.push_back(obs::SpanTotal{"gemm", 3, 0.05});
  const std::string s = obs::to_json(m);
  EXPECT_TRUE(obs::is_json_object(s)) << s;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_EQ(count_key(s, obs::phase_name(static_cast<obs::Phase>(p))), 1)
        << s;
  }
  EXPECT_EQ(count_key(s, "kernels"), 1);
  EXPECT_EQ(int_field(s, "step"), 7);
  EXPECT_EQ(int_field(s, "rank"), 1);
}

TEST(StepMetricsTest, PhaseTotalsAccumulate) {
  obs::StepMetrics a;
  a.step_s = 1.0;
  a.images = 10;
  a.allreduce_bytes = 100;
  a.phase(obs::Phase::kAllReduce) = 0.25;
  obs::StepMetrics b;
  b.step_s = 1.0;
  b.images = 10;
  b.allreduce_bytes = 100;
  b.phase(obs::Phase::kAllReduce) = 0.35;
  a.phase(obs::Phase::kAllReduceExposed) = 0.05;
  b.phase(obs::Phase::kAllReduceExposed) = 0.15;
  obs::PhaseTotals t;
  t.add(a);
  t.add(b);
  EXPECT_EQ(t.steps, 2);
  EXPECT_EQ(t.images, 20);
  EXPECT_EQ(t.allreduce_bytes, 200);
  EXPECT_DOUBLE_EQ(t.phase(obs::Phase::kAllReduce), 0.6);
  EXPECT_DOUBLE_EQ(t.allreduce_fraction(), 0.3);
  EXPECT_DOUBLE_EQ(t.exposed_allreduce_fraction(), 0.1);
}

// ---- Trainer integration ----------------------------------------------------

TEST(TrainerObservabilityTest, EmitsOneRecordPerRankPerStep) {
  const std::string path = temp_path("trainer_obs.jsonl");
  core::TrainConfig c;
  c.spec = effnet::pico();
  c.dataset.num_classes = 4;
  c.dataset.train_size = 64;
  c.dataset.eval_size = 16;
  c.dataset.resolution = 8;
  c.replicas = 2;
  c.per_replica_batch = 16;
  c.epochs = 1.0;  // 64 / (2*16) = 2 steps per epoch -> 2 steps
  c.eval_every_epochs = 1.0;
  c.metrics_sink = obs::make_jsonl_sink(path);

  const core::TrainResult r = core::train(c);
  ASSERT_EQ(r.total_steps, 2);

  std::size_t line_count = 0;
  std::string error;
  ASSERT_TRUE(obs::validate_jsonl_file(path, &line_count, &error)) << error;

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(r.total_steps) * 2);
  // Every (rank, step) pair appears exactly once, with every phase key
  // exactly once per record.
  std::vector<int> seen(4, 0);
  for (const std::string& line : lines) {
    EXPECT_EQ(count_key(line, "kind"), 1);
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      EXPECT_EQ(count_key(line, obs::phase_name(static_cast<obs::Phase>(p))),
                1)
          << line;
    }
    const long long step = int_field(line, "step");
    const long long rank = int_field(line, "rank");
    ASSERT_GE(step, 0);
    ASSERT_LT(step, 2);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 2);
    ++seen[static_cast<std::size_t>(step * 2 + rank)];
    EXPECT_EQ(int_field(line, "images"), 16);
    EXPECT_EQ(int_field(line, "restarts"), 0);
  }
  for (int s : seen) EXPECT_EQ(s, 1);

  // Rank 0's rollup made it into the result.
  EXPECT_EQ(r.phase_totals.steps, 2);
  EXPECT_EQ(r.phase_totals.images, 32);
  EXPECT_GT(r.phase_totals.step_seconds, 0.0);
  EXPECT_GT(r.phase_totals.allreduce_bytes, 0);
  EXPECT_GE(r.phase_totals.allreduce_fraction(), 0.0);
  EXPECT_LT(r.phase_totals.allreduce_fraction(), 1.0);
  // Serially, the exposed wait is the all-reduce phase itself.
  EXPECT_DOUBLE_EQ(r.phase_totals.phase(obs::Phase::kAllReduceExposed),
                   r.phase_totals.phase(obs::Phase::kAllReduce));
  EXPECT_DOUBLE_EQ(r.phase_totals.exposed_allreduce_fraction(),
                   r.phase_totals.allreduce_fraction());
  // Phases tile the step: their sum cannot exceed total step time. Eval is
  // measured outside the step window, and the exposed all-reduce is an
  // overlay of the kAllReduce phase (the waited-on part), not another
  // tile — both stay out of the sum.
  double phase_sum = 0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    if (static_cast<obs::Phase>(p) == obs::Phase::kEval ||
        static_cast<obs::Phase>(p) == obs::Phase::kAllReduceExposed) {
      continue;
    }
    phase_sum += r.phase_totals.seconds[p];
  }
  EXPECT_LE(phase_sum, r.phase_totals.step_seconds * 1.01 + 1e-6);
}

TEST(TrainerObservabilityTest, NullSinkStillFillsPhaseTotals) {
  core::TrainConfig c;
  c.spec = effnet::pico();
  c.dataset.num_classes = 4;
  c.dataset.train_size = 64;
  c.dataset.eval_size = 16;
  c.dataset.resolution = 8;
  c.replicas = 2;
  c.per_replica_batch = 16;
  c.epochs = 1.0;
  c.eval_every_epochs = 1.0;
  const core::TrainResult r = core::train(c);
  EXPECT_EQ(r.phase_totals.steps, r.total_steps);
  EXPECT_GT(r.phase_totals.step_seconds, 0.0);
  EXPECT_GT(r.phase_totals.phase(obs::Phase::kForward), 0.0);
}

}  // namespace

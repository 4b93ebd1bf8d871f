// e2ebench: end-to-end training benchmark of PodNet (see README.md).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scratch <dir>] [--source-id <text>] [--prepare]
//
// --prepare runs the workload's untimed preparation (the seeds' starting
// checkpoints) into --scratch and exits; the measured invocation with the
// same options follows in a fresh process, so its peak memory and timings
// exclude the preparation.
//
// Prints a host/build fingerprint line, human-readable metric lines, and
// as the last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
// the traced replay and reports the per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/json.h"
#include "tensor/simd.h"
#include "tensor/thread_pool.h"

extern char** environ;

namespace e2ebench {

void fail_check(RunResult& result, const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  ++result.failed;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Host interference. On a virtual machine the hypervisor can hand this
// machine's CPUs to other guests ("steal"), which slows every timing no
// matter what the program does. /proc/stat counts it; the run prints its
// share so that a slow result can be told apart from a slow program.
struct CpuTimes {
  double steal = 0;  // jiffies, all CPUs
  double total = 0;
};

CpuTimes cpu_times() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;  // the "cpu" line sums all CPUs, in jiffies
  CpuTimes t;
  double v = 0;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// Share of CPU time stolen between two snapshots.
double steal_share(const CpuTimes& from, const CpuTimes& to) {
  return to.total > from.total ? (to.steal - from.steal) / (to.total - from.total)
                               : 0.0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--source-id <text>] [--prepare]\n",
               why);
  std::exit(2);
}

// Results must not depend on the caller's shell: drop every PODNET_*
// variable (PODNET_SIMD, PODNET_IR*, PODNET_FAST, ...) and pin the kernel
// pool size. Runs before anything creates the global thread pool.
void pin_environment(int threads) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PODNET_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("PODNET_THREADS", std::to_string(threads).c_str(), 1);
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Runs with different fingerprints are not comparable.
std::string fingerprint(const Options& opts, const std::string& source_id) {
  obs::JsonWriter w;
  w.field("cpu", cpu_model())
      .field("simd", tensor::simd::level_name(tensor::simd::detected_level()))
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("pool_threads",
             tensor::ThreadPool::global().worker_count() + 1)
      .field("build_type", E2E_BUILD_TYPE)
      .field("build_flags", E2E_BUILD_FLAGS)
      .field("build_options", E2E_BUILD_OPTIONS)
      .field("source", source_id)
      .field("workload", opts.workload->name)
      .field("threads", opts.workload->threads);
  return w.str();
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Options opts;
  std::string source_id = "unknown";
  int trace = -1;
  bool prepare = false;
  opts.scratch = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opts.workload = find_workload(v);
      if (opts.workload == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--scratch") {
      opts.scratch = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (opts.workload == nullptr) usage("--workload is required");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");

  pin_environment(opts.workload->threads);
  std::filesystem::create_directories(opts.scratch);
  if (prepare) {
    // The traced run replays sub-seed 0 only.
    const int seeds = trace == 1 ? 1 : opts.workload->sub_seeds;
    try {
      for (int j = 0; j < seeds; ++j) {
        std::filesystem::create_directories(seed_dir(opts, j));
        prepare_seed(*opts.workload, sub_seed(opts.seed, j), seed_dir(opts, j));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: %s\n", e.what());
      return 1;
    }
    std::printf("preparation of %d seed(s): peak rss %.3f MB\n", seeds,
                peak_rss_mb());
    return 0;
  }
  std::printf("fingerprint %s\n", fingerprint(opts, source_id).c_str());
  std::fflush(stdout);

  const CpuTimes run_start = cpu_times();
  RunResult r;
  try {
    r = trace == 1 ? run_traced(opts) : run_end_to_end(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }

  std::printf("cpu steal share during the run %.4f\n",
              steal_share(run_start, cpu_times()));
  for (auto& [name, m] : r.metrics) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), m.value, m.unit);
    if (!std::isfinite(m.value)) {
      fail_check(r, name + " is not finite");
      m.value = -1;  // JSON has no NaN/Inf; the run is marked incorrect
    }
  }
  // The result line is formatted here rather than with obs::JsonWriter,
  // which rounds to 9 digits: values are reported with every digit.
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

// The DimQR benchmark driver. Usage:
//   dimqr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--size full|smoke] [--trace-out <path>]
//                   [--corrupt-digest]
// Prints a context line, a detail line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// correctness check passed. See NOTES.md for the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "lm/kernels.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

/// Cumulative (steal, total) jiffies of the aggregate "cpu" line.
std::pair<double, double> ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0, steal = 0.0, value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, RunConfig& config) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      config.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--size" && has_value) {
      const std::string v = argv[++i];
      if (v != "full" && v != "smoke") return false;
      config.smoke = v == "smoke";
    } else if (arg == "--trace-out" && has_value) {
      config.trace_path = argv[++i];
    } else if (arg == "--corrupt-digest") {
      config.corrupt_digest = true;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::WorkloadNames();
  return have_workload && have_seed && have_seconds && have_trace &&
         std::find(names.begin(), names.end(), config.workload) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, config)) {
    std::fprintf(stderr,
                 "usage: %s --workload dimeval-e2e|serve-shared|serve-unshared "
                 "--seed N --seconds S --trace 0|1 [--size full|smoke] "
                 "[--trace-out PATH] [--corrupt-digest]\n",
                 argv[0]);
    return 2;
  }
  // Timings from unoptimised trees are not comparable.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "dimqr_perfbench: refusing to run a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }
  // Four pool threads, never more than the host has CPUs.
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  config.threads = static_cast<int>(std::min(4L, nproc));

  const auto cpu_before = ReadCpuTimes();
  const double start_us = perfbench::NowUs();
  RunResult result = perfbench::RunWorkload(config);
  const double wall_s = (perfbench::NowUs() - start_us) / 1e6;
  const auto cpu_after = ReadCpuTimes();
  const double cpu_total = cpu_after.second - cpu_before.second;
  const double steal_share =
      cpu_total > 0 ? (cpu_after.first - cpu_before.first) / cpu_total : 0.0;

  if (!config.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.metrics.push_back(
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  }
  result.Check(result.attempted > 0, "no operation was attempted");
  for (const Metric& m : result.metrics) {
    result.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  const char* env_threads = std::getenv("DIMQR_THREADS");
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"size\": %s, \"nproc\": %ld, \"threads\": %d, "
      "\"DIMQR_THREADS\": %s, \"isa\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"steal_share\": %s, \"wall_s\": %s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      config.smoke ? "\"smoke\"" : "\"full\"", nproc, config.threads,
      JsonString(env_threads == nullptr ? "unset" : env_threads).c_str(),
      JsonString(dimqr::lm::kernels::IsaName(dimqr::lm::kernels::ActiveIsa()))
          .c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonNumber(steal_share).c_str(),
      JsonNumber(wall_s).c_str());
  std::string digests = "{";
  for (std::size_t i = 0; i < result.digests.size(); ++i) {
    digests += (i == 0 ? "" : ", ") + JsonString(result.digests[i].first) +
               ": " + JsonString(result.digests[i].second);
  }
  digests += "}";
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + JsonString(result.errors[i]);
  }
  errors += "]";
  std::printf("{\"detail\": %s, \"digests\": %s, \"errors\": %s}\n",
              MetricsJson(result.details).c_str(), digests.c_str(),
              errors.c_str());
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "dimqr_perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

#ifndef DIMQR_PERFBENCH_WORKLOADS_H_
#define DIMQR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file workloads.h
/// The three benchmark workloads. Each run measures its workload untraced
/// (the end-to-end metrics), or untraced and then traced (the per-layer
/// metrics plus the tracing overhead), and checks its own outputs.

namespace perfbench {

/// \brief One invocation's settings, parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< Floor on the measured time of the run.
  bool trace = false;
  bool smoke = false;            ///< Tiny sizes for the benchmark's own tests.
  bool corrupt_digest = false;   ///< Test hook: corrupts one stored digest.
  int threads = 1;               ///< Pool size of the measured phases.
  std::string trace_path;        ///< Chrome trace output (trace runs only).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What a run reports. `metrics` go on the final result line;
/// `details` (the figures under their per-workload names, digests, sample
/// counts) go on the line before it.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::pair<std::string, std::string>> digests;

  void Detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }

  /// Records a failed correctness check.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload`. Unknown names never reach here (see main).
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // DIMQR_PERFBENCH_WORKLOADS_H_

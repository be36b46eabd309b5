#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: rounds alternate untraced / traced, spans are recorded
  /// around every library call of the traced rounds, and the per-layer
  /// metrics are reported instead of the end-to-end ones.
  bool trace = false;
  /// Small instance for smoke runs; every check still runs.
  bool quick = false;
  /// Directory the traced run writes its spans to.
  std::string trace_dir;
};

struct RunReport {
  uint64_t attempted = 0;  ///< queries plus update batches
  uint64_t failed = 0;     ///< operations that returned a non-OK Status
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::vector<std::string> notes;     ///< human-readable run summary
};

const std::vector<std::string>& WorkloadNames();

RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

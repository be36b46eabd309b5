// Benchmark binary: runs one workload in this process and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. A human-readable summary goes to stderr.
//
//   hcbench --workload batch-wide --seed 1 --seconds 20 --trace 0
//   hcbench --workload serve-mixed --seed 1 --seconds 20 --trace 1
//       --trace-dir .bench_build/traces
//   hcbench --workload serve-sharded --seed 1 --seconds 1 --quick
//   hcbench --self-test
//
// Exit codes: 0 when the run completed (the JSON line says whether its
// outputs were correct), 2 on bad arguments, 1 when set-up failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "oracle.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hcbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--quick] [--trace-dir <dir>]\n"
               "       hcbench --self-test\n"
               "workloads:");
  for (const auto& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* opt,
               bool* self_test) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (arg == "--self-test") {
      *self_test = true;
    } else if (arg == "--quick") {
      opt->quick = true;
    } else if (arg == "--workload") {
      if (!value(&opt->workload)) return false;
    } else if (arg == "--trace-dir") {
      if (!value(&opt->trace_dir)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      opt->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      opt->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      opt->trace = v == "1";
    } else {
      return false;
    }
  }
  return true;
}

void RunSelfTest(std::vector<std::string>* failures) {
  const int rules = perfbench::SelfTest(failures);
  std::fprintf(stderr, "[perfbench] self-test: %d rules, %zu misjudged\n",
               rules, failures->size());
  for (const auto& f : *failures) std::fprintf(stderr, "  %s\n", f.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool self_test = false;
  if (!ParseArgs(argc, argv, &opt, &self_test)) {
    Usage();
    return 2;
  }
  std::vector<std::string> self_test_failures;
  RunSelfTest(&self_test_failures);
  if (self_test) return self_test_failures.empty() ? 0 : 1;

  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == opt.workload;
  if (!known) {
    Usage();
    return 2;
  }

  perfbench::RunReport report;
  try {
    report = perfbench::RunWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s: set-up failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = self_test_failures.empty() && report.problems.empty();
  for (const auto& n : report.notes) {
    std::fprintf(stderr, "[perfbench] %s: %s\n", opt.workload.c_str(),
                 n.c_str());
  }
  for (const auto& p : report.problems) {
    std::fprintf(stderr, "[perfbench] %s: CHECK FAILED: %s\n",
                 opt.workload.c_str(), p.c_str());
  }
  std::fprintf(stderr,
               "[perfbench] %s: attempted %llu operations, failed %llu\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  for (const auto& m : report.metrics) {
    std::fprintf(stderr, "[perfbench] %s: %-28s %.6g %s\n",
                 opt.workload.c_str(), m.name.c_str(), m.value,
                 m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

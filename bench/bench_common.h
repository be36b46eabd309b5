#ifndef HCPATH_BENCH_BENCH_COMMON_H_
#define HCPATH_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/options.h"
#include "core/query.h"
#include "graph/graph.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"

namespace hcpath {
namespace bench {

/// Flags shared by every experiment binary.
struct CommonFlags {
  FlagSet flags;
  std::string* datasets;   ///< comma list, "default" (EP,SL,BK,WT) or "all"
  double* scale;           ///< dataset scale factor (1.0 = DESIGN.md sizes)
  int64_t* queries;        ///< query set size
  int64_t* seed;
  double* gamma;           ///< clustering threshold γ
  int64_t* threads;        ///< engine workers: 0 = all cores, 1 = sequential
  std::string* csv;        ///< optional CSV output path ("" = off)
  double* time_budget;     ///< per-run wall budget in seconds (OT beyond)
  bool* quick;             ///< shrink the sweep for smoke runs
  std::string* kernel;     ///< probe kernel: auto | stamped | naive

  CommonFlags();
};

/// Parses flags; exits the process on --help or bad flags.
void ParseOrDie(CommonFlags& cf, int argc, char** argv);

/// BatchOptions seeded from the shared flags (--gamma, --threads) and
/// validated — the one place the per-driver flag-to-options plumbing
/// lives. Drivers override fields (algorithm, caps, sweep values) on the
/// returned struct.
BatchOptions MakeBatchOptions(const CommonFlags& cf);

/// Expands the --datasets flag into registry names (exits on unknown).
std::vector<std::string> ResolveDatasets(const std::string& spec);

/// Instantiates a registry stand-in (exits on failure) and logs its stats.
Graph LoadDataset(const std::string& name, double scale, uint64_t seed);

/// Outcome of timing one algorithm over one query batch.
struct RunOutcome {
  bool over_time = false;    ///< exceeded the time budget / resource caps
  double seconds = 0;
  uint64_t total_paths = 0;
  BatchStats stats;
};

/// Runs `algo` on the batch and returns wall time; a run whose result is
/// ResourceExhausted (per-query caps) or exceeds `time_budget` reports OT
/// like the paper. The enumeration itself is not preempted, so budgets
/// should be paired with max_paths caps for genuinely explosive runs.
RunOutcome TimeAlgorithm(const Graph& g,
                         const std::vector<PathQuery>& queries,
                         Algorithm algo, const BatchOptions& base_options,
                         double time_budget);

/// "12.345" or "OT".
std::string FormatTime(const RunOutcome& o);

/// Opens the CSV sink when --csv is set (returns nullptr otherwise).
std::unique_ptr<CsvWriter> OpenCsv(const std::string& path);

}  // namespace bench
}  // namespace hcpath

#endif  // HCPATH_BENCH_BENCH_COMMON_H_

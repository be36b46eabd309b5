#ifndef HCPATH_CORE_ENUMERATOR_H_
#define HCPATH_CORE_ENUMERATOR_H_

#include <vector>

#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/search.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "util/status.h"

namespace hcpath {

/// Outcome of a batch run: per-query result counts plus phase timings and
/// work counters.
struct BatchResult {
  std::vector<uint64_t> path_counts;
  BatchStats stats;

  uint64_t TotalPaths() const {
    uint64_t total = 0;
    for (uint64_t c : path_counts) total += c;
    return total;
  }
};

class BatchContext;

/// The one place a batch is run: validates `options` and the whole batch
/// up front (so no algorithm emits anything before rejecting a batch), then
/// dispatches on options.algorithm — kPathEnum runs PathEnumQuery per query
/// with `kernel` as its pre-resolved dispatch and sets
/// stats->total_seconds; the other four run RunBasicEnum / RunBatchEnum
/// with `ctx` (nullptr = call-local context). The facade, PathEngine and
/// the sharded router all route through here.
Status RunPipeline(const Graph& g, const std::vector<PathQuery>& queries,
                   const BatchOptions& options, const ResolvedKernel& kernel,
                   PathSink* sink, BatchStats* stats, BatchContext* ctx);

/// Unified façade over every algorithm in the library. Typical use:
///
///   BatchPathEnumerator enumerator(g);
///   BatchOptions opt;
///   opt.algorithm = Algorithm::kBatchEnumPlus;
///   auto result = enumerator.Run(queries, opt, &my_sink);
///
/// The sink is optional; pass nullptr to only count paths. The graph must
/// outlive the enumerator.
class BatchPathEnumerator {
 public:
  explicit BatchPathEnumerator(const Graph& g) : g_(g) {}

  /// Runs all `queries` with the algorithm selected in `options`, streaming
  /// every path to `sink` (when non-null) and returning per-query counts.
  ///
  /// Not thread-safe across concurrent Run calls on one enumerator (the
  /// kernel cache below mutates); intra-batch parallelism lives in the
  /// engines. Lease one enumerator per concurrent caller.
  StatusOr<BatchResult> Run(const std::vector<PathQuery>& queries,
                            const BatchOptions& options,
                            PathSink* sink = nullptr);

 private:
  /// Kernel dispatch for `mode` on g_, resolved once and reused across Run
  /// calls. Keyed on (mode, Graph::version()): a driver that assigns a
  /// rebuilt graph into the referenced object between Run calls gets the
  /// prefetch gate re-resolved for the new graph.
  const ResolvedKernel& KernelFor(KernelMode mode);

  const Graph& g_;
  ResolvedKernel kernel_cache_;
  KernelMode kernel_cache_mode_ = KernelMode::kAuto;
  uint64_t kernel_cache_graph_version_ = 0;  ///< 0 = cache empty
};

const char* AlgorithmName(Algorithm a);

/// Parses "pathenum", "basic", "basic+", "batch", "batch+" (as used by the
/// bench binaries' --algos flag).
StatusOr<Algorithm> ParseAlgorithm(const std::string& name);

}  // namespace hcpath

#endif  // HCPATH_CORE_ENUMERATOR_H_

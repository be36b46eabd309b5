#include "core/enumerator.h"

#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "core/path_enum.h"
#include "util/timer.h"

namespace hcpath {

namespace {

/// Counts per query and forwards to an optional downstream sink.
class TeeSink : public PathSink {
 public:
  TeeSink(size_t num_queries, PathSink* downstream)
      : counts_(num_queries, 0), downstream_(downstream) {}

  void OnPath(size_t query_index, PathView path) override {
    ++counts_[query_index];
    if (downstream_ != nullptr) downstream_->OnPath(query_index, path);
  }

  std::vector<uint64_t> TakeCounts() { return std::move(counts_); }

 private:
  std::vector<uint64_t> counts_;
  PathSink* downstream_;
};

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kPathEnum:
      return "PathEnum";
    case Algorithm::kBasicEnum:
      return "BasicEnum";
    case Algorithm::kBasicEnumPlus:
      return "BasicEnum+";
    case Algorithm::kBatchEnum:
      return "BatchEnum";
    case Algorithm::kBatchEnumPlus:
      return "BatchEnum+";
  }
  return "?";
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "pathenum" || name == "PathEnum") return Algorithm::kPathEnum;
  if (name == "basic" || name == "BasicEnum") return Algorithm::kBasicEnum;
  if (name == "basic+" || name == "BasicEnum+") {
    return Algorithm::kBasicEnumPlus;
  }
  if (name == "batch" || name == "BatchEnum") return Algorithm::kBatchEnum;
  if (name == "batch+" || name == "BatchEnum+") {
    return Algorithm::kBatchEnumPlus;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

Status RunPipeline(const Graph& g, const std::vector<PathQuery>& queries,
                   const BatchOptions& options, const ResolvedKernel& kernel,
                   PathSink* sink, BatchStats* stats, BatchContext* ctx) {
  HCPATH_RETURN_NOT_OK(options.Validate());
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, queries));
  const bool optimized = options.algorithm == Algorithm::kBasicEnumPlus ||
                         options.algorithm == Algorithm::kBatchEnumPlus;
  switch (options.algorithm) {
    case Algorithm::kPathEnum: {
      // Per-query baseline: no shared index, so `ctx` has nothing to
      // recycle.
      WallTimer total;
      SingleQueryOptions sq;
      sq.max_paths = options.max_paths_per_query;
      sq.kernel = options.kernel_mode;
      sq.resolved = kernel;
      Status st;
      for (size_t i = 0; i < queries.size() && st.ok(); ++i) {
        st = PathEnumQuery(g, queries[i], sq, i, sink, stats);
      }
      if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
      return st;
    }
    case Algorithm::kBasicEnum:
    case Algorithm::kBasicEnumPlus:
      return RunBasicEnum(g, queries, options, optimized, sink, stats, ctx);
    case Algorithm::kBatchEnum:
    case Algorithm::kBatchEnumPlus:
      return RunBatchEnum(g, queries, options, optimized, sink, stats, ctx);
  }
  return Status::InvalidArgument("BatchOptions.algorithm holds an invalid "
                                 "enum value");
}

const ResolvedKernel& BatchPathEnumerator::KernelFor(KernelMode mode) {
  const uint64_t graph_version = g_.version();
  if (kernel_cache_graph_version_ != graph_version ||
      kernel_cache_mode_ != mode) {
    kernel_cache_ = ResolveKernel(mode, g_);
    kernel_cache_mode_ = mode;
    kernel_cache_graph_version_ = graph_version;
  }
  return kernel_cache_;
}

StatusOr<BatchResult> BatchPathEnumerator::Run(
    const std::vector<PathQuery>& queries, const BatchOptions& options,
    PathSink* sink) {
  BatchResult result;
  TeeSink tee(queries.size(), sink);
  HCPATH_RETURN_NOT_OK(RunPipeline(g_, queries, options,
                                   KernelFor(options.kernel_mode), &tee,
                                   &result.stats, /*ctx=*/nullptr));
  result.path_counts = tee.TakeCounts();
  return result;
}

}  // namespace hcpath

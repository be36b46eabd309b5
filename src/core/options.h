#ifndef HCPATH_CORE_OPTIONS_H_
#define HCPATH_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace hcpath {

/// Which batch algorithm to run (Section V, "Algorithms").
enum class Algorithm {
  kPathEnum,       ///< per-query PathEnum, index built per query (baseline)
  kBasicEnum,      ///< Algorithm 1: shared MS-BFS index, independent queries
  kBasicEnumPlus,  ///< BasicEnum with the optimized search order
  kBatchEnum,      ///< Algorithm 4: clustering + HC-s path sharing
  kBatchEnumPlus,  ///< BatchEnum with the optimized search order
};

const char* AlgorithmName(Algorithm a);

/// Pruning rule for *shared* HC-s path queries (DESIGN.md D3). Single-query
/// searches always use exact per-target pruning.
enum class SharedPruning {
  /// Per-(target, slack) list propagated through Ψ: tightest sound rule,
  /// O(#sharing targets) per expansion.
  kPerTarget,
  /// Batch-wide min-distance array: O(1) per expansion but weaker.
  kGlobalMin,
};

/// How query similarity (Def 4.5) is evaluated for clustering.
enum class SimilarityMode {
  /// The cheapest route by a cost rule on the measured reach-set and
  /// posting sizes: exact by ScanCount or the exact pair loop, sketched
  /// only when large overlapping reach sets make the word-ANDs cost more
  /// than the estimator (core/similarity.h).
  kAuto,
  kExact,   ///< exact |Γ| intersections (ScanCount, key probes or bitset ANDs)
  kSketch,  ///< bottom-k minhash estimate (fast, approximate)
};

/// Which membership-probe kernel the enumeration hot loops use for the
/// disjointness tests (join backward-candidate probe, cached-suffix splice
/// probe, DFS on-path check). All modes compute identical results — this
/// knob exists for benchmarking and differential testing, never for
/// correctness (docs/PERF.md "Kernel inventory").
enum class KernelMode {
  /// Stamped probes with the batched TestAny/TestBatch path, plus the
  /// measured adaptive cutover to the naive scan for very short probes.
  kAuto,
  /// Stamped probes only — no naive cutover, batched tests always.
  kStamped,
  /// The pre-stamp linear scans (the verbatim reference kernels); the
  /// differential oracle.
  kNaive,
};

const char* KernelModeName(KernelMode m);

/// Parses "auto" / "stamped" / "naive" (case-insensitive).
StatusOr<KernelMode> ParseKernelMode(const std::string& name);

/// Options controlling a batch run. Defaults mirror the paper's settings
/// (γ = 0.5, Section V "Settings").
struct BatchOptions {
  Algorithm algorithm = Algorithm::kBatchEnumPlus;

  /// Clustering threshold γ of Algorithm 2.
  double gamma = 0.5;

  SharedPruning shared_pruning = SharedPruning::kPerTarget;
  SimilarityMode similarity_mode = SimilarityMode::kAuto;

  /// Minimum hop budget for creating a dominating HC-s path query node;
  /// sharing a 1-hop suffix costs more bookkeeping than it saves.
  int min_dominating_budget = 1;

  /// Per-cluster cap on dominating nodes, as a multiple of the cluster
  /// size. Every dominating node re-expands its own detection cone, so on
  /// saturated clusters (hub-dominated graphs where all reach sets
  /// coincide) unlimited creation degrades Algorithm 3 from
  /// O(|Q|(V+E)) toward O(V(V+E)). 0 = unlimited.
  double max_dominating_per_query = 8.0;

  /// Safety valve: a query producing more results than this fails the run
  /// with ResourceExhausted instead of exhausting memory. 0 = unlimited.
  uint64_t max_paths_per_query = 0;

  /// Cap on materialized vertices held in the sharing cache R (0 = off).
  uint64_t max_cache_vertices = 0;

  /// Compute threads for the batch engines. 0 (or any value < 1) = use
  /// every hardware thread; 1 = the single-threaded reference
  /// implementation (default). Any larger value N runs on N compute
  /// threads (N - 1 shared pool workers plus the calling thread): the
  /// index build shards its BFS waves, BatchEnum runs clusters and
  /// BasicEnum runs queries in parallel, and results are merged in input
  /// order so paths, counts, and work counters are identical to
  /// num_threads = 1 (docs/PARALLELISM.md).
  int num_threads = 1;

  /// Minimum live queries in a cluster before its internal phases also run
  /// as sub-tasks on the pool (forward/backward detection and enumeration
  /// concurrently, assembly joins query-parallel, large root searches
  /// frontier-split). This is what keeps thread scaling on skewed batches
  /// where one giant cluster would otherwise serialize on a single worker.
  /// Output stays bit-identical to num_threads = 1 regardless of the value
  /// (docs/PARALLELISM.md); the knob only trades sub-task overhead against
  /// balance. Values < 2 behave as 2. Ignored when num_threads == 1.
  int intra_cluster_min_queries = 2;

  /// Disable phase 1 clustering (every query in one cluster); ablation.
  bool disable_clustering = false;

  /// Disable HC-s path sharing entirely inside BatchEnum (detection still
  /// runs, shortcuts are ignored); ablation of the cache reuse.
  bool disable_cache_reuse = false;

  /// Membership-probe kernel selection for the enumeration hot loops.
  /// Every mode produces byte-identical output; see KernelMode.
  KernelMode kernel_mode = KernelMode::kAuto;

  /// Range-checks the option values: γ must lie in [0, 1] (Algorithm 2
  /// clusters on a similarity threshold), and min_dominating_budget /
  /// max_dominating_per_query must be non-negative. Called at every
  /// pipeline entry point (RunPipeline, RunBatchEnum, RunBasicEnum,
  /// PathEngine construction), so malformed
  /// options fail fast with InvalidArgument instead of silently steering
  /// clustering or detection.
  Status Validate() const;
};

/// How a full admission queue pushes back on Submit (docs/SERVICE.md).
enum class AdmissionBackpressure {
  /// Submit blocks until queue space frees (or the engine stops). Blocked
  /// submitters are admitted in FIFO order of arrival.
  kBlock,
  /// Submit resolves the query's future immediately with ResourceExhausted
  /// ("admission queue full ...").
  kFailFast,
};

/// Multi-tenant admission configuration of a PathEngine: the bounded
/// admission queue, the backpressure policy, overload shedding, and tenant
/// weights for the weighted-fair-queueing drain (docs/SERVICE.md covers
/// the state machine and the fairness/determinism argument). Validated at
/// engine construction next to BatchOptions::Validate().
struct AdmissionOptions {
  /// Entry budget of the admission queue (> 0): the queue never holds more
  /// than this many waiting queries.
  size_t max_queued_queries = 4096;

  /// Byte budget of the admission queue (> 0), accounting each waiting
  /// query's bookkeeping footprint. A query is always admissible into an
  /// *empty* queue (otherwise an over-budget single query could never run),
  /// which is the one case the budget may be exceeded.
  uint64_t max_queued_bytes = 16ull << 20;

  AdmissionBackpressure backpressure = AdmissionBackpressure::kBlock;

  /// Overload begins when the queue reaches `shed_high_watermark` of either
  /// budget, and ends when it drops below. Once overload has persisted for
  /// `shed_patience_seconds`, waiting queries are shed —
  /// lowest-weight-first (see WeightedFairQueue::ShedDownTo) — until the
  /// queue is back at `shed_low_watermark` of both budgets. Shed queries'
  /// futures resolve with ResourceExhausted ("query shed by admission
  /// control ..."). Watermarks are fractions: 0 < low <= high <= 1.
  double shed_high_watermark = 1.0;
  double shed_low_watermark = 0.5;
  double shed_patience_seconds = 0.050;

  /// Max snapshot lag (store-backed engines, docs/DYNAMIC.md): when > 0,
  /// each update install fails every still-queued query whose pinned
  /// snapshot now lags the new current epoch by MORE than this many
  /// epochs. The query's future resolves with FailedPrecondition
  /// ("query snapshot over max lag ..."), its pin is released, and the
  /// store's deferred GC can reclaim the retired snapshot — bounding how
  /// much superseded-graph memory long-queued queries keep alive. 0 (the
  /// default) never fails a pin; queries keep their admission snapshot
  /// indefinitely. Dispatched queries are unaffected either way: once
  /// running, a query always finishes on its pinned snapshot.
  uint64_t max_snapshot_lag = 0;

  /// WFQ weight for tenants absent from `tenant_weights` (> 0).
  double default_tenant_weight = 1.0;

  /// Per-tenant WFQ weights (each > 0). Over any backlogged interval a
  /// tenant receives micro-batch slots proportional to its weight; under
  /// shedding, lower weight is shed first.
  std::map<std::string, double> tenant_weights;

  /// Range-checks the admission configuration: positive queue budgets,
  /// consistent shed watermarks (0 < low <= high <= 1), non-negative
  /// patience, and strictly positive tenant weights (NaN rejected
  /// everywhere). Called by PathEngine construction; a failed engine
  /// rejects every Submit/RunBatch.
  Status Validate() const;
};

}  // namespace hcpath

#endif  // HCPATH_CORE_OPTIONS_H_

#ifndef HCPATH_CORE_STATS_H_
#define HCPATH_CORE_STATS_H_

#include <cstdint>
#include <string>

namespace hcpath {

/// Counters and phase timings for one batch run. The four phase timers are
/// exactly the decomposition reported by Exp-3 (Fig 9).
struct BatchStats {
  // --- Fig 9 phases (seconds) ---
  double build_index_seconds = 0;   ///< BuildIndex: multi-source BFSs
  double cluster_seconds = 0;       ///< ClusterQuery: Algorithm 2, the sum
                                    ///< of the two parts below
  double similarity_seconds = 0;    ///< µ matrix (Def 4.5)
  double linkage_seconds = 0;       ///< average-linkage merging (Def 4.6)
  double detect_seconds = 0;        ///< IdentifySubquery: Algorithm 3
  double enumerate_seconds = 0;     ///< Enumeration: search + join + output

  double total_seconds = 0;

  // --- work counters ---
  uint64_t edges_expanded = 0;      ///< DFS edge expansions performed
  uint64_t edges_pruned = 0;        ///< expansions rejected by the index
  uint64_t paths_emitted = 0;       ///< HC-s-t paths output across queries
  uint64_t join_probes = 0;         ///< forward/backward join attempts
  uint64_t join_rejected = 0;       ///< join pairs rejected (dup vertex)
  /// Midpoint bucket indexes built by JoinAndEmit (one per query whose
  /// join can probe, i.e. hb > 0 and a non-empty backward set). The index
  /// lives in recycled JoinScratch storage, so rebuilds reuse capacity;
  /// steady-state scratch reuse shows up as rebuilds without allocation
  /// growth (exp9 service stats). Deterministic: part of the counter
  /// identity across thread counts.
  uint64_t join_index_rebuilds = 0;

  // --- sharing counters (BatchEnum only) ---
  uint64_t num_clusters = 0;
  uint64_t similarity_pairs = 0;    ///< query pairs whose overlap was evaluated
  uint64_t sharing_nodes = 0;       ///< HC-s path nodes in all Ψ
  uint64_t dominating_nodes = 0;    ///< non-root nodes (detected sharing)
  uint64_t sharing_edges = 0;
  uint64_t shortcut_splices = 0;    ///< cache concatenations performed
  uint64_t cached_paths = 0;        ///< paths materialized into R
  uint64_t cache_peak_vertices = 0; ///< high-water mark of R
  uint64_t cycle_edges_skipped = 0; ///< reuse edges dropped to keep Ψ a DAG

  // --- cross-batch distance-cache counters (PathEngine / BatchContext) ---
  // Unique (endpoint, direction, hop-cap) keys served from / missed in the
  // cross-batch endpoint distance cache during index builds. Observability
  // like the merge metrics below, NOT part of the determinism identity: a
  // warm engine reports hits where a one-shot run reports misses, while
  // emitting the bit-identical path stream (docs/SERVICE.md).
  uint64_t distance_cache_hits = 0;
  uint64_t distance_cache_misses = 0;

  // --- streaming-merge metrics (parallel runs only) ---
  // Scheduling-dependent observability: zero at num_threads == 1 and NOT
  // part of the determinism identity (the path stream and the counters
  // above are; these vary run to run).
  uint64_t merge_peak_buffered_bytes = 0;  ///< high-water mark of undrained buffers
  uint64_t merge_total_buffered_bytes = 0; ///< gather-then-merge would hold all of this at once
  uint64_t merge_streamed_items = 0;       ///< buffers drained while workers still ran
  uint64_t merge_final_items = 0;          ///< buffers drained in the final sweep

  void Accumulate(const BatchStats& other);
  std::string ToString() const;
};

/// Per-tenant admission counters of the PathEngine scheduler
/// (docs/SERVICE.md). Every Submit naming a tenant lands in exactly one of
/// {rejected, fast_failed, admitted}; every admitted query later lands in
/// exactly one of {completed, shed, lag_failed} — so
///   submitted == rejected + fast_failed + admitted   (once unblocked) and
///   admitted  == completed + shed + lag_failed + currently-queued.
/// The one exception: a submit that fails because the engine is shutting
/// down counts only as submitted (the differential suite checks the laws
/// on quiesced engines, where the exception cannot occur).
struct TenantAdmissionStats {
  uint64_t submitted = 0;    ///< Submit calls naming this tenant
  uint64_t admitted = 0;     ///< entered the admission queue
  uint64_t completed = 0;    ///< carried through a micro-batch
  uint64_t rejected = 0;     ///< failed admission-time validation
  uint64_t fast_failed = 0;  ///< ResourceExhausted at a full queue (fail-fast)
  uint64_t shed = 0;         ///< dropped by overload shedding
  uint64_t blocked = 0;      ///< submits that waited for queue space
  uint64_t lag_failed = 0;   ///< failed while queued: pinned snapshot over
                             ///< AdmissionOptions::max_snapshot_lag

  void Accumulate(const TenantAdmissionStats& other);
  std::string ToString() const;
};

}  // namespace hcpath

#endif  // HCPATH_CORE_STATS_H_

#ifndef HCPATH_CORE_SIMILARITY_H_
#define HCPATH_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "graph/graph.h"
#include "index/distance_index.h"
#include "util/bitset.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hcpath {

/// Symmetric matrix of pairwise HC-s-t path query similarities µ (Def 4.5).
class SimilarityMatrix {
 public:
  explicit SimilarityMatrix(size_t n) : n_(n), values_(n * n, 0.0) {
    for (size_t i = 0; i < n; ++i) values_[i * n + i] = 1.0;
  }

  size_t size() const { return n_; }
  double Get(size_t i, size_t j) const { return values_[i * n_ + j]; }
  void Set(size_t i, size_t j, double v) {
    values_[i * n_ + j] = v;
    values_[j * n_ + i] = v;
  }

  /// Average pairwise similarity µ_Q over distinct pairs (Exp-1); 0 when
  /// |Q| < 2.
  double Average() const;

 private:
  size_t n_;
  std::vector<double> values_;
};

/// How ComputeSimilarityMatrix counted the last matrix (see the cost rule
/// below). kScanCount and kPairExact give bit-identical cells.
enum class SimilarityRoute {
  kScanCount,   ///< exact, from vertex->query postings
  kPairExact,   ///< exact pair loop (key probes or bitset ANDs)
  kPairSketch,  ///< pair loop with the bottom-k estimator for large sets
};

/// Reusable working memory for ComputeSimilarityMatrix. A long-lived caller
/// (BatchContext) passes the same scratch every batch so postings, key
/// lists, sketches and bitsets are recycled instead of reallocated; the
/// computed matrix is unaffected. `route` and `pairs` report what the last
/// call did (BatchStats::similarity_pairs).
struct SimilarityScratch {
  /// Pair-loop working set, one per reach set (Γ from the sources, Γ_R to
  /// the targets).
  struct Side {
    std::vector<size_t> size;                    // |Γ| per query
    std::vector<std::vector<VertexId>> keys;     // Γ unordered, probe sides only
    std::vector<std::vector<uint64_t>> sketch;   // sketch mode
    std::vector<DynamicBitset> bits;             // exact mode
  };
  /// Vertex->query postings of one direction in CSR form: the lists of
  /// all vertices reached by the batch, each in ascending query order.
  struct Postings {
    std::vector<uint32_t> slot_end;   // per distinct vertex: end of its list
    std::vector<uint32_t> queries;    // the lists, back to back
    std::vector<uint32_t> inc_slot;   // per incidence (query-major): vertex slot
    std::vector<uint32_t> inc_next;   // per incidence: where later queries start
    std::vector<size_t> inc_begin;    // per query: first incidence (n + 1)
  };
  /// Per-row-block ScanCount counters (one block per concurrent task).
  struct RowCounters {
    std::vector<uint32_t> fwd, bwd;   // shared-vertex counts per later query
    std::vector<uint32_t> touched;    // queries with fwd > 0
  };
  Side fwd, bwd;
  Postings fwd_post, bwd_post;
  std::vector<RowCounters> rows;
  /// Vertex -> posting slot, tagged with the filling pass's epoch in the
  /// high 32 bits, so no |V|-sized clear is needed between passes.
  std::vector<uint64_t> slot_of;
  uint32_t epoch = 0;

  SimilarityRoute route = SimilarityRoute::kScanCount;
  uint64_t pairs = 0;  ///< pairs (i < j) whose overlap was evaluated
};

/// µ(qA, qB): harmonic mean of the forward and backward neighborhood
/// overlap coefficients
///   o = |Γ(qA) ∩ Γ(qB)| / min(|Γ(qA)|, |Γ(qB)|),
/// 0 when either intersection is empty (DESIGN.md D7). The Γ sets come from
/// the batch index, reusing the BFS work exactly as the paper prescribes
/// ("we do not need to compute Γ(q) ... specialized for query clustering").
///
/// `mode` chooses exact intersections (kExact), bottom-k minhash sketches
/// (kSketch), or lets the cost rule pick (kAuto).
///
/// Cost rule. Only pairs that share a vertex can score, so exact µ is
/// counted by ScanCount (AllPairs, Bayardo et al., WWW 2007) over one
/// vertex->query postings list per direction: for each query i and each
/// v in Γ(i), every later query in v's list gets its counter bumped, and
/// the backward counts are kept only for pairs with a forward count. That
/// costs a fixed amount per incidence plus Σ_v C(|P_v|, 2) =
/// Σ_{i<j} |Γ(i) ∩ Γ(j)| bumps, and never visits a pair that shares
/// nothing. The pair loops cost a fixed amount per pair and per incidence
/// plus, per pair and direction, about the smaller set: walked until a
/// word-AND of |V|/64 words (exact) or the estimator (sketch) takes over.
/// The per-operation weights are fitted timings (similarity.cc). Before
/// counting anything, the pair loops' costs are estimated from the Γ sizes
/// alone; kExact falls back to the exact pair loop, kAuto to the cheaper of
/// the two. The postings are then counted while ScanCount's cost stays
/// within the fallback's (a batch whose incidences cannot spread thinly
/// enough is not counted at all), and the fallback runs once it does not.
/// So sparse batches are exact at any size, dense ones run the pair loop,
/// and only batches of large, overlapping reach sets over a large |V|
/// (where the word-ANDs outgrow the sketches) are estimated.
///
/// The pair loop's own rule: each pair costs about its smaller set —
///  * exact mode counts |A ∩ B| by walking the smaller set's keys and
///    testing the other set's bitset while min(|A|, |B|) is below the
///    bitset's word count, and by a word-parallel AND + popcount otherwise;
///  * sketch mode counts exactly, by walking the smaller set's keys and
///    probing the other distance map, whenever one set fits in a sketch
///    (<= 256 vertices); only pairs of two larger sets use the estimator;
///  * the backward overlap is computed only when the forward one is > 0,
///    since µ is 0 otherwise.
/// Every exact route gives the same integers, so the rule changes only the
/// cost, never a cell.
///
/// With a pool, ScanCount rows and the pair loop run row-parallel; every
/// pair is computed by exactly one task, so the matrix is identical to the
/// sequential one.
SimilarityMatrix ComputeSimilarityMatrix(const Graph& g,
                                         const std::vector<PathQuery>& queries,
                                         const DistanceIndex& index,
                                         SimilarityMode mode,
                                         ThreadPool* pool = nullptr,
                                         SimilarityScratch* scratch = nullptr);

/// Exact overlap coefficient of two sorted vertex sets (exposed for tests).
double OverlapCoefficient(const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b);

}  // namespace hcpath

#endif  // HCPATH_CORE_SIMILARITY_H_

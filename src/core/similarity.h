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

/// Reusable working memory for ComputeSimilarityMatrix, one Side per
/// reach set (Γ from the sources, Γ_R to the targets). A long-lived caller
/// (BatchContext) passes the same scratch every batch so the per-query key
/// lists, sketches and |V|-bit sets are recycled instead of reallocated; the
/// computed matrix is unaffected.
struct SimilarityScratch {
  struct Side {
    std::vector<size_t> size;                    // |Γ| per query
    std::vector<std::vector<VertexId>> keys;     // Γ unordered, probe sides only
    std::vector<std::vector<uint64_t>> sketch;   // sketch mode
    std::vector<DynamicBitset> bits;             // exact mode
  };
  Side fwd, bwd;
};

/// µ(qA, qB): harmonic mean of the forward and backward neighborhood
/// overlap coefficients
///   o = |Γ(qA) ∩ Γ(qB)| / min(|Γ(qA)|, |Γ(qB)|),
/// 0 when either intersection is empty (DESIGN.md D7). The Γ sets come from
/// the batch index, reusing the BFS work exactly as the paper prescribes
/// ("we do not need to compute Γ(q) ... specialized for query clustering").
///
/// `mode` chooses exact intersections or bottom-k minhash sketches (kAuto
/// picks sketches once |Q|^2 * |V|/64 exceeds 1e7 word operations).
///
/// Cost rule. Each pair costs about the size of its smaller set:
///  * exact mode counts |A ∩ B| by walking the smaller set's keys and
///    testing the other set's bitset while min(|A|, |B|) is below the
///    bitset's word count (~|V|/64), and by a word-parallel AND + popcount
///    otherwise, where dense reach sets make the AND the cheaper loop;
///  * sketch mode counts exactly, by walking the smaller set's keys and
///    probing the other distance map, whenever one set fits in a sketch
///    (<= 256 vertices); only pairs of two larger sets use the estimator;
///  * the backward overlap is computed only when the forward one is > 0,
///    since µ is 0 otherwise.
/// Both counting routes give the same integer, so the rule changes only the
/// cost, never a cell. Key lists are gathered once per call, unsorted, from
/// the index's maps.
///
/// With a pool, the per-query setup and the O(|Q|^2) pair loop run
/// row-parallel; every pair is computed by exactly one task, so the matrix
/// is identical to the sequential one.
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

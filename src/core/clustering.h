#ifndef HCPATH_CORE_CLUSTERING_H_
#define HCPATH_CORE_CLUSTERING_H_

#include <cstddef>
#include <vector>

#include "core/similarity.h"

namespace hcpath {

/// ClusterQuery (Algorithm 2): hierarchical agglomerative clustering of the
/// query batch under the group similarity δ (Def 4.6, average linkage).
/// Repeatedly merges the two clusters with the highest δ until no pair
/// exceeds γ. Returns clusters as lists of query indices, each ascending,
/// ordered by their smallest query; every query appears in exactly one
/// cluster. Deterministic: ties break toward the smallest indices.
///
/// Components. δ of two clusters is an average of their cross cells, so
/// with the strict `> γ` test two clusters only merge when some cross cell
/// exceeds γ, and clusters never merge across the connected components of
/// the graph {µ > γ}. The loop therefore runs once per component of size
/// >= 2, with the whole-batch loop's merge order, tie-breaks and pair-sum
/// additions, and singletons skip it: the clusters are byte-identical to
/// the O(|Q|^3) whole-batch loop on the same matrix. The components use a
/// threshold a few ulps below γ (clustering.cc), so a rounded average of
/// cells equal to γ cannot cross them either. On a batch whose queries
/// share little, the cost is one O(|Q|^2) matrix scan plus union-find.
std::vector<std::vector<size_t>> ClusterQueries(const SimilarityMatrix& sim,
                                                double gamma);

}  // namespace hcpath

#endif  // HCPATH_CORE_CLUSTERING_H_

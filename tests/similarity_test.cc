#include "core/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/basic_enum.h"
#include "graph/generators.h"
#include "test_graphs.h"
#include "util/thread_pool.h"

namespace hcpath {
namespace {

SimilarityMatrix MatrixFor(const Graph& g,
                           const std::vector<PathQuery>& queries,
                           SimilarityMode mode) {
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr);
  return ComputeSimilarityMatrix(g, queries, index, mode);
}

TEST(Similarity, IdenticalQueriesHaveMuOne) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs = {{0, 11, 5}, {0, 11, 5}};
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 1.0);
}

TEST(Similarity, SubsetQueriesHaveMuOne) {
  // Property (2) of Def 4.5: if P(qA) ⊆ P(qB), µ = 1. A query with smaller
  // k at the same endpoints has subset reach sets.
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs = {{0, 11, 3}, {0, 11, 5}};
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 1.0);
}

TEST(Similarity, DisjointNeighborhoodsHaveMuZero) {
  // Two far-apart segments of a long path graph.
  auto g = GeneratePath(40);
  std::vector<PathQuery> qs = {{0, 3, 3}, {30, 33, 3}};
  SimilarityMatrix sim = MatrixFor(*g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 0.0);
}

TEST(Similarity, MatrixIsSymmetricAndBounded) {
  Rng rng(3);
  auto g = GenerateBarabasiAlbert(500, 4, rng);
  Rng qrng(5);
  std::vector<PathQuery> qs;
  while (qs.size() < 12) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(500));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(500));
    if (s != t) qs.push_back({s, t, 4});
  }
  SimilarityMatrix sim = MatrixFor(*g, qs, SimilarityMode::kExact);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(sim.Get(i, i), 1.0);
    for (size_t j = 0; j < qs.size(); ++j) {
      EXPECT_DOUBLE_EQ(sim.Get(i, j), sim.Get(j, i));
      EXPECT_GE(sim.Get(i, j), 0.0);
      EXPECT_LE(sim.Get(i, j), 1.0);
    }
  }
}

TEST(Similarity, PaperExampleQ3Q4AreMaximallySimilar) {
  // Example 4.1: µ(q3, q4) = 1 and {q3,q4} clusters apart from {q0,q1,q2}.
  Graph g = PaperFigure1Graph();
  auto qs = PaperFigure1Queries();
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(3, 4), 1.0);
  EXPECT_GT(sim.Get(0, 1), 0.5);   // q0, q1 strongly overlap
  EXPECT_LT(sim.Get(0, 3), sim.Get(0, 1));
}

TEST(Similarity, SketchApproximatesExact) {
  Rng rng(7);
  auto g = GenerateBarabasiAlbert(2000, 5, rng);
  Rng qrng(9);
  std::vector<PathQuery> qs;
  // Mix of clones (high µ) and random pairs (low µ).
  VertexId hub_s = static_cast<VertexId>(qrng.NextBounded(2000));
  VertexId hub_t = static_cast<VertexId>(qrng.NextBounded(2000));
  if (hub_s == hub_t) hub_t = (hub_t + 1) % 2000;
  for (int i = 0; i < 5; ++i) qs.push_back({hub_s, hub_t, 5});
  while (qs.size() < 10) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(2000));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(2000));
    if (s != t) qs.push_back({s, t, 5});
  }
  SimilarityMatrix exact = MatrixFor(*g, qs, SimilarityMode::kExact);
  SimilarityMatrix sketch = MatrixFor(*g, qs, SimilarityMode::kSketch);
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = i + 1; j < qs.size(); ++j) {
      EXPECT_NEAR(sketch.Get(i, j), exact.Get(i, j), 0.25)
          << "pair " << i << "," << j;
    }
  }
  EXPECT_NEAR(sketch.Average(), exact.Average(), 0.1);
}

TEST(Similarity, AverageOfCloneSetIsOne) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs(4, PathQuery{0, 11, 5});
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Average(), 1.0);
}

// ---- The pair kernel against a reference built from the sorted Γ sets ----

/// µ of Def 4.5 computed the slow way: OverlapCoefficient over the index's
/// sorted Gamma()/GammaR() sets and the harmonic mean.
SimilarityMatrix ReferenceMatrix(const DistanceIndex& index, size_t n) {
  SimilarityMatrix ref(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double f = OverlapCoefficient(index.Gamma(i), index.Gamma(j));
      const double b = OverlapCoefficient(index.GammaR(i), index.GammaR(j));
      ref.Set(i, j, f > 0 && b > 0 ? 2.0 * f * b / (f + b) : 0.0);
    }
  }
  return ref;
}

size_t MinSize(const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
  return std::min(a.size(), b.size());
}

/// Cells the sketch estimator never sees: every direction has a set of at
/// most 256 vertices (counted exactly), or a direction's true overlap is 0
/// (so µ is 0 whatever the estimator would say).
bool SketchCellIsExact(const DistanceIndex& index, size_t i, size_t j) {
  constexpr size_t kSketchSize = 256;
  const bool fwd_small = MinSize(index.Gamma(i), index.Gamma(j)) <= kSketchSize;
  const bool bwd_small =
      MinSize(index.GammaR(i), index.GammaR(j)) <= kSketchSize;
  return (fwd_small && bwd_small) ||
         OverlapCoefficient(index.Gamma(i), index.Gamma(j)) == 0.0 ||
         OverlapCoefficient(index.GammaR(i), index.GammaR(j)) == 0.0;
}

/// Queries mixing hop budgets 1..5 (reach sets from a handful of vertices
/// to dense ones) with near-clones that share endpoints' neighborhoods, so
/// both zero and nonzero overlaps appear.
std::vector<PathQuery> MixedQueries(const Graph& g, size_t n, uint64_t seed) {
  Rng rng(seed);
  const VertexId nv = static_cast<VertexId>(g.NumVertices());
  std::vector<PathQuery> qs;
  while (qs.size() < n) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(nv));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(nv));
    if (s == t) continue;
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    qs.push_back({s, t, k});
    // A neighbor query on the same endpoints with another budget.
    if (qs.size() < n) qs.push_back({s, t, 1 + (k % 5)});
  }
  return qs;
}

/// Checks the matrix computed into `sc` against the reference: every cell
/// bit-identical in exact mode, every estimator-free cell in sketch mode.
/// Returns the number of cells compared.
size_t ExpectMatchesReference(const Graph& g,
                              const std::vector<PathQuery>& qs,
                              SimilarityMode mode, ThreadPool* pool,
                              SimilarityScratch* sc) {
  DistanceIndex index;
  BuildBatchIndex(g, qs, &index, nullptr);
  const SimilarityMatrix sim =
      ComputeSimilarityMatrix(g, qs, index, mode, pool, sc);
  const SimilarityMatrix ref = ReferenceMatrix(index, qs.size());
  size_t compared = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(sim.Get(i, i), 1.0);
    for (size_t j = i + 1; j < qs.size(); ++j) {
      EXPECT_EQ(sim.Get(i, j), sim.Get(j, i));
      if (mode == SimilarityMode::kSketch && !SketchCellIsExact(index, i, j)) {
        continue;
      }
      EXPECT_EQ(sim.Get(i, j), ref.Get(i, j)) << "pair " << i << "," << j;
      ++compared;
    }
  }
  return compared;
}

/// Both test graphs: a Watts–Strogatz ring (sparse, hash-backed reach sets)
/// and a Barabási–Albert graph (hubs; dense-backed reach sets at k >= 3).
std::vector<Graph> KernelGraphs() {
  std::vector<Graph> gs;
  Rng ws_rng(11);
  gs.push_back(*GenerateSmallWorld(3000, 3, 0.1, ws_rng));
  Rng ba_rng(13);
  gs.push_back(*GenerateBarabasiAlbert(3000, 3, ba_rng));
  return gs;
}

TEST(SimilarityKernel, QueriesCoverBothSidesOfEveryCutover) {
  // Guards the reference tests below: their batches must reach the probe
  // and the word-AND routes (|V|/64 = 47 words here), both sides of the
  // sketch fallback (256), both map backings, and zero and nonzero cells.
  const std::vector<Graph> gs = KernelGraphs();
  size_t probe = 0, word_and = 0, small_sketch = 0, big_sketch = 0;
  size_t dense = 0, hashed = 0, zero = 0, nonzero = 0;
  for (const Graph& g : gs) {
    const auto qs = MixedQueries(g, 40, 21);
    DistanceIndex index;
    BuildBatchIndex(g, qs, &index, nullptr);
    const size_t words = (g.NumVertices() + 63) / 64;
    const SimilarityMatrix ref = ReferenceMatrix(index, qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      (index.FromSourceMap(i).IsDense() ? dense : hashed)++;
      for (size_t j = i + 1; j < qs.size(); ++j) {
        const size_t m = MinSize(index.Gamma(i), index.Gamma(j));
        (m < words ? probe : word_and)++;
        (m <= 256 ? small_sketch : big_sketch)++;
        (ref.Get(i, j) == 0.0 ? zero : nonzero)++;
      }
    }
  }
  EXPECT_GT(probe, 0u);
  EXPECT_GT(word_and, 0u);
  EXPECT_GT(small_sketch, 0u);
  EXPECT_GT(big_sketch, 0u);
  EXPECT_GT(dense, 0u);
  EXPECT_GT(hashed, 0u);
  EXPECT_GT(zero, 0u);
  EXPECT_GT(nonzero, 0u);
}

TEST(SimilarityKernel, ExactAndSketchMatchReferenceWithAndWithoutPool) {
  ThreadPool pool(3);
  for (const Graph& g : KernelGraphs()) {
    const auto qs = MixedQueries(g, 40, 21);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EXPECT_EQ(ExpectMatchesReference(g, qs, SimilarityMode::kExact, p,
                                       nullptr),
                qs.size() * (qs.size() - 1) / 2);
      EXPECT_GT(ExpectMatchesReference(g, qs, SimilarityMode::kSketch, p,
                                       nullptr),
                0u);
    }
  }
}

TEST(SimilarityKernel, SingleVertexReachSets) {
  // Sources with no out-edges and targets with no in-edges reach only
  // themselves: |Γ| = 1, the smallest set an index holds. Every pair
  // touching one of them takes the probe route, with a 0 or 1 overlap.
  auto g = GeneratePath(300);
  std::vector<PathQuery> qs = {{299, 0, 3}, {299, 5, 3}, {0, 299, 4},
                               {10, 0, 2},  {0, 1, 1},   {100, 150, 5}};
  for (SimilarityMode mode :
       {SimilarityMode::kExact, SimilarityMode::kSketch}) {
    EXPECT_EQ(ExpectMatchesReference(*g, qs, mode, nullptr, nullptr),
              qs.size() * (qs.size() - 1) / 2);
  }
}

TEST(SimilarityKernel, AutoMatchesTheModeItPicks) {
  // kAuto keeps its rule: exact while |Q|^2 * |V|/64 <= 1e7, sketches
  // above. 200k vertices: 8 queries stay exact, 64 switch to sketches.
  Rng rng(17);
  auto g = GenerateSmallWorld(200000, 3, 0.1, rng);
  ThreadPool pool(2);
  for (size_t n : {size_t{8}, size_t{64}}) {
    const auto qs = MixedQueries(*g, n, 23);
    DistanceIndex index;
    BuildBatchIndex(*g, qs, &index, nullptr);
    const SimilarityMode picked =
        n == 8 ? SimilarityMode::kExact : SimilarityMode::kSketch;
    const SimilarityMatrix want =
        ComputeSimilarityMatrix(*g, qs, index, picked);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const SimilarityMatrix got =
          ComputeSimilarityMatrix(*g, qs, index, SimilarityMode::kAuto, p);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(got.Get(i, j), want.Get(i, j))
              << n << ": " << i << "," << j;
        }
      }
    }
    EXPECT_GT(ExpectMatchesReference(*g, qs, SimilarityMode::kAuto, &pool,
                                     nullptr),
              0u);
  }
}

TEST(SimilarityKernel, RecycledScratchAcrossGrowingAndShrinkingBatches) {
  // One scratch serves batches whose size grows then shrinks, alternating
  // modes and graphs: leftovers of a bigger or other-mode batch (keys,
  // bits, sketches) must never leak into a later matrix.
  const std::vector<Graph> gs = KernelGraphs();
  ThreadPool pool(2);
  SimilarityScratch sc;
  const size_t sizes[] = {6, 30, 48, 12, 3};
  size_t step = 0;
  for (size_t n : sizes) {
    for (SimilarityMode mode :
         {SimilarityMode::kExact, SimilarityMode::kSketch}) {
      const Graph& g = gs[step % gs.size()];
      ThreadPool* p = step % 2 == 0 ? nullptr : &pool;
      const auto qs = MixedQueries(g, n, 100 + step);
      ExpectMatchesReference(g, qs, mode, p, &sc);
      ++step;
    }
  }
}

TEST(OverlapCoefficient, HandComputed) {
  std::vector<VertexId> a = {1, 2, 3, 4};
  std::vector<VertexId> b = {3, 4, 5};
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, b), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, {}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, a), 1.0);
}

}  // namespace
}  // namespace hcpath

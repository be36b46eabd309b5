#include "core/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/basic_enum.h"
#include "graph/generators.h"
#include "test_graphs.h"
#include "util/thread_pool.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"

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

/// The cost model of core/similarity.cc recomputed from the sorted Γ sets,
/// in the same units: ScanCount costs 30 per incidence (`scan_fixed`) plus
/// one per bump, Σ_v C(|P_v|, 2) = Σ_{i<j} |Γ(i) ∩ Γ(j)| over both
/// directions; the exact pair loop 26 per pair, 9 per incidence, and per
/// pair and direction the smaller set while it is below |V|/64, else 6 per
/// bitset word; the sketch pair loop 26 per pair, 28 per incidence, and per
/// pair and direction 5 per key of a smaller set of <= 256, else 1000.
struct ModelCosts {
  double exact = 0, sketch = 0, scan_fixed = 0, bumps = 0;
};

ModelCosts CostsOf(const Graph& g, const DistanceIndex& index, size_t n) {
  const double words = static_cast<double>((g.NumVertices() + 63) / 64);
  ModelCosts c;
  for (bool fwd : {true, false}) {
    auto set = [&](size_t i) -> const std::vector<VertexId>& {
      return fwd ? index.Gamma(i) : index.GammaR(i);
    };
    std::vector<uint64_t> lists(g.NumVertices(), 0);
    for (size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(set(i).size());
      c.exact += 9 * t;
      c.sketch += 28 * t;
      c.scan_fixed += 30 * t;
      for (VertexId v : set(i)) c.bumps += static_cast<double>(lists[v]++);
      for (size_t j = i + 1; j < n; ++j) {
        const double m = static_cast<double>(MinSize(set(i), set(j)));
        c.exact += m < words ? m : 6 * words;
        c.sketch += m <= 256 ? 5 * m : 1000;
      }
    }
  }
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2;
  c.exact += 26 * pairs;
  c.sketch += 26 * pairs;
  return c;
}

/// The route the rule picks: kExact falls back to the exact pair loop,
/// kAuto to the cheaper pair loop, and ScanCount runs while it costs no
/// more than the fallback.
SimilarityRoute PredictRoute(const Graph& g, const DistanceIndex& index,
                             size_t n, SimilarityMode mode) {
  if (mode == SimilarityMode::kSketch) return SimilarityRoute::kPairSketch;
  const ModelCosts c = CostsOf(g, index, n);
  const bool use_sketch = mode == SimilarityMode::kAuto && c.sketch < c.exact;
  if (c.scan_fixed + c.bumps <= (use_sketch ? c.sketch : c.exact)) {
    return SimilarityRoute::kScanCount;
  }
  return use_sketch ? SimilarityRoute::kPairSketch
                    : SimilarityRoute::kPairExact;
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
/// Also checks that the route taken is the one the cost rule predicts and
/// reports it through `route`.
size_t ExpectMatchesReference(const Graph& g,
                              const std::vector<PathQuery>& qs,
                              SimilarityMode mode, ThreadPool* pool,
                              SimilarityScratch* sc,
                              SimilarityRoute* route = nullptr) {
  DistanceIndex index;
  BuildBatchIndex(g, qs, &index, nullptr);
  SimilarityScratch local;
  if (sc == nullptr) sc = &local;
  const SimilarityMatrix sim =
      ComputeSimilarityMatrix(g, qs, index, mode, pool, sc);
  const SimilarityRoute want = PredictRoute(g, index, qs.size(), mode);
  if (qs.size() >= 2) {
    EXPECT_EQ(sc->route, want);
  }
  if (route != nullptr) *route = sc->route;
  const SimilarityMatrix ref = ReferenceMatrix(index, qs.size());
  size_t compared = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(sim.Get(i, i), 1.0);
    for (size_t j = i + 1; j < qs.size(); ++j) {
      EXPECT_EQ(sim.Get(i, j), sim.Get(j, i));
      if (sc->route == SimilarityRoute::kPairSketch &&
          !SketchCellIsExact(index, i, j)) {
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
  // Guards the reference tests below: kExact must take ScanCount on one
  // graph and the exact pair loop on the other, and that pair loop must
  // reach the probe and the word-AND routes (|V|/64 = 47 words here); the
  // batches must also reach both sides of the sketch fallback (256), both
  // map backings, and zero and nonzero cells.
  const std::vector<Graph> gs = KernelGraphs();
  size_t probe = 0, word_and = 0, small_sketch = 0, big_sketch = 0;
  size_t dense = 0, hashed = 0, zero = 0, nonzero = 0;
  size_t scan_batches = 0;
  for (const Graph& g : gs) {
    const auto qs = MixedQueries(g, 40, 21);
    DistanceIndex index;
    BuildBatchIndex(g, qs, &index, nullptr);
    const size_t words = (g.NumVertices() + 63) / 64;
    const bool pair_loop = PredictRoute(g, index, qs.size(),
                                        SimilarityMode::kExact) ==
                           SimilarityRoute::kPairExact;
    scan_batches += pair_loop ? 0 : 1;
    const SimilarityMatrix ref = ReferenceMatrix(index, qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      (index.FromSourceMap(i).IsDense() ? dense : hashed)++;
      for (size_t j = i + 1; j < qs.size(); ++j) {
        const size_t m = MinSize(index.Gamma(i), index.Gamma(j));
        if (pair_loop) (m < words ? probe : word_and)++;
        (m <= 256 ? small_sketch : big_sketch)++;
        (ref.Get(i, j) == 0.0 ? zero : nonzero)++;
      }
    }
  }
  EXPECT_EQ(scan_batches, 1u);
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
  // kAuto follows the cost rule (PredictRoute), not a fixed size rule: on
  // a sparse 200k-vertex graph 8 queries take the exact pair loop (too few
  // pairs to pay for the postings) and 64 take ScanCount; 200 queries on a
  // 32k-vertex R-MAT graph, whose reach sets cover a fifth of it, take the
  // sketch estimator. The 1e7 rule kAuto used before would have sketched
  // the last two. Every matrix equals the one of the mode the route
  // implies (ScanCount is exact).
  Rng ws_rng(17);
  auto sparse = GenerateSmallWorld(200000, 3, 0.1, ws_rng);
  auto dense = MakeDataset("WT", 0.2, 7);
  ASSERT_TRUE(dense.ok());
  ThreadPool pool(2);
  struct Case {
    const Graph* g;
    std::vector<PathQuery> qs;
    SimilarityRoute want;
  };
  std::vector<Case> cases;
  cases.push_back({&*sparse, MixedQueries(*sparse, 8, 23),
                   SimilarityRoute::kPairExact});
  cases.push_back({&*sparse, MixedQueries(*sparse, 64, 23),
                   SimilarityRoute::kScanCount});
  {
    Rng qrng(9);
    QueryGenOptions qopt;
    qopt.k_min = 4;
    qopt.k_max = 6;
    auto qs = GenerateRandomQueries(*dense, 200, qopt, qrng);
    ASSERT_TRUE(qs.ok());
    cases.push_back({&*dense, std::move(*qs), SimilarityRoute::kPairSketch});
  }
  for (const Case& c : cases) {
    const size_t n = c.qs.size();
    DistanceIndex index;
    BuildBatchIndex(*c.g, c.qs, &index, nullptr);
    EXPECT_EQ(PredictRoute(*c.g, index, n, SimilarityMode::kAuto), c.want)
        << n;
    const SimilarityMatrix want = ComputeSimilarityMatrix(
        *c.g, c.qs, index,
        c.want == SimilarityRoute::kPairSketch ? SimilarityMode::kSketch
                                               : SimilarityMode::kExact);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SimilarityScratch sc;
      const SimilarityMatrix got = ComputeSimilarityMatrix(
          *c.g, c.qs, index, SimilarityMode::kAuto, p, &sc);
      EXPECT_EQ(sc.route, c.want) << n;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(got.Get(i, j), want.Get(i, j))
              << n << ": " << i << "," << j;
        }
      }
    }
    if (c.want != SimilarityRoute::kPairSketch) {
      EXPECT_EQ(ExpectMatchesReference(*c.g, c.qs, SimilarityMode::kAuto,
                                       &pool, nullptr),
                n * (n - 1) / 2);
    }
  }
}

TEST(SimilarityKernel, ScanCountOnBothSidesOfTheCostRule) {
  // Sparse batches (small hop budgets on the ring) take ScanCount; dense
  // ones (the hub graph at k = 4..5, where reach sets cover most of |V|)
  // exceed the pair loop's cost and fall back to it. Either way every cell
  // matches the reference, with and without a pool, fresh or recycled
  // scratch, and kAuto agrees with kExact wherever kAuto stays exact.
  const std::vector<Graph> gs = KernelGraphs();
  ThreadPool pool(3);
  SimilarityScratch recycled;
  size_t scan = 0, pair = 0;
  for (int round = 0; round < 8; ++round) {
    const Graph& g = gs[round % 2];
    Rng rng(300 + round);
    const VertexId nv = static_cast<VertexId>(g.NumVertices());
    std::vector<PathQuery> qs;
    const int k_lo = round % 2 == 0 ? 1 : 4;
    while (qs.size() < 24 + 8 * static_cast<size_t>(round)) {
      const VertexId s = static_cast<VertexId>(rng.NextBounded(nv));
      const VertexId t = static_cast<VertexId>(rng.NextBounded(nv));
      if (s == t) continue;
      qs.push_back({s, t, k_lo + static_cast<int>(rng.NextBounded(2))});
      if (rng.NextBernoulli(0.25)) qs.push_back({s, t, k_lo});
    }
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (SimilarityScratch* sc :
           {static_cast<SimilarityScratch*>(nullptr), &recycled}) {
        SimilarityRoute route;
        EXPECT_EQ(ExpectMatchesReference(g, qs, SimilarityMode::kExact, p, sc,
                                         &route),
                  qs.size() * (qs.size() - 1) / 2);
        (route == SimilarityRoute::kScanCount ? scan : pair)++;
        ExpectMatchesReference(g, qs, SimilarityMode::kAuto, p, sc);
      }
    }
  }
  EXPECT_GT(scan, 0u);
  EXPECT_GT(pair, 0u);
}

TEST(SimilarityKernel, CountGivesUpOnACloneHeavyBatch) {
  // Few incidences overall (so the postings are counted), but 24 clones
  // of one wide query share every vertex: the bump count passes the pair
  // loop's cost partway through and the exact pair loop takes over.
  Rng rng(41);
  auto g = GenerateSmallWorld(3000, 3, 0.1, rng);
  std::vector<PathQuery> qs(24, PathQuery{7, 1500, 8});
  while (qs.size() < 40) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(3000));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(3000));
    if (s != t) qs.push_back({s, t, 1});
  }
  DistanceIndex index;
  BuildBatchIndex(*g, qs, &index, nullptr);
  // The even-spread lower bound on the bumps (MinBumps in
  // core/similarity.cc, at most T^2 / 2|V| per direction) stays within the
  // budget, so the count starts; the bumps themselves do not.
  uint64_t fwd_total = 0, bwd_total = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    fwd_total += index.Gamma(i).size();
    bwd_total += index.GammaR(i).size();
  }
  const ModelCosts c = CostsOf(*g, index, qs.size());
  const double budget = c.exact - c.scan_fixed;
  const auto spread = [](uint64_t total) {
    return static_cast<double>(total * total / 3000 / 2);
  };
  EXPECT_LT(spread(fwd_total) + spread(bwd_total), budget);
  EXPECT_GT(c.bumps, budget);
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SimilarityRoute route;
    ExpectMatchesReference(*g, qs, SimilarityMode::kExact, p, nullptr,
                           &route);
    EXPECT_EQ(route, SimilarityRoute::kPairExact);
  }
}

TEST(SimilarityKernel, ScanCountReportsPairsThatShareAForwardVertex) {
  // `pairs` counts the pairs ScanCount evaluated (a shared forward vertex)
  // and every pair in the pair loop. 40 short windows along a path, two of
  // them overlapping a neighbor: (0, 1) and (2, 3) share vertices.
  auto g = GeneratePath(4000);
  std::vector<PathQuery> qs;
  for (VertexId m = 0; m < 38; ++m) {
    qs.push_back({100 * m, 100 * m + 3, 2});
    if (m == 0 || m == 2) qs.push_back({100 * m + 1, 100 * m + 4, 2});
  }
  DistanceIndex index;
  BuildBatchIndex(*g, qs, &index, nullptr);
  SimilarityScratch sc;
  ComputeSimilarityMatrix(*g, qs, index, SimilarityMode::kExact, nullptr,
                          &sc);
  ASSERT_EQ(sc.route, SimilarityRoute::kScanCount);
  EXPECT_EQ(sc.pairs, 2u);
  ComputeSimilarityMatrix(*g, qs, index, SimilarityMode::kSketch, nullptr,
                          &sc);
  EXPECT_EQ(sc.route, SimilarityRoute::kPairSketch);
  EXPECT_EQ(sc.pairs, qs.size() * (qs.size() - 1) / 2);
}

TEST(SimilarityKernel, RecycledScratchAcrossGrowingAndShrinkingBatches) {
  // One scratch serves batches whose size grows then shrinks, alternating
  // modes, routes and graphs: leftovers of a bigger or other-route batch
  // (postings, counters, keys, bits, sketches) must never leak into a
  // later matrix.
  const std::vector<Graph> gs = KernelGraphs();
  ThreadPool pool(2);
  SimilarityScratch sc;
  const size_t sizes[] = {6, 30, 48, 12, 3};
  size_t step = 0;
  for (size_t n : sizes) {
    for (SimilarityMode mode : {SimilarityMode::kExact, SimilarityMode::kAuto,
                                SimilarityMode::kSketch}) {
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

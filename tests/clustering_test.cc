#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "core/basic_enum.h"
#include "graph/generators.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

TEST(Clustering, MergesOnlyAboveGamma) {
  SimilarityMatrix sim(4);
  sim.Set(0, 1, 0.9);
  sim.Set(2, 3, 0.85);
  sim.Set(0, 2, 0.1);
  auto clusters = ClusterQueries(sim, 0.5);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{2, 3}));
}

TEST(Clustering, GammaOneKeepsSingletons) {
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.99);
  auto clusters = ClusterQueries(sim, 1.0);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(Clustering, GammaZeroMergesConnectedQueries) {
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.4);
  sim.Set(1, 2, 0.4);
  sim.Set(0, 2, 0.4);
  auto clusters = ClusterQueries(sim, 0.0);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(Clustering, AverageLinkageStopsChaining) {
  // 0-1 similar, 2 similar to 1 only; with average linkage and a high
  // threshold, 2 must not chain into {0,1} because δ({0,1},{2}) averages
  // in the dissimilar pair (0,2).
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.95);
  sim.Set(1, 2, 0.8);
  sim.Set(0, 2, 0.0);
  auto clusters = ClusterQueries(sim, 0.7);
  // δ({0,1},{2}) = (0.8 + 0.0)/2 = 0.4 < 0.7 -> stays out.
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{2}));
}

TEST(Clustering, EveryQueryInExactlyOneCluster) {
  SimilarityMatrix sim(10);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = i + 1; j < 10; ++j) {
      sim.Set(i, j, (i / 5 == j / 5) ? 0.9 : 0.05);
    }
  }
  auto clusters = ClusterQueries(sim, 0.5);
  std::vector<int> seen(10, 0);
  for (const auto& c : clusters) {
    for (size_t q : c) ++seen[q];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(Clustering, PaperExampleFormsTwoGroups) {
  // Example 4.1: with γ = 0.8, Q splits into {q0, q1, q2} and {q3, q4}.
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr);
  SimilarityMatrix sim =
      ComputeSimilarityMatrix(g, queries, index, SimilarityMode::kExact);
  auto clusters = ClusterQueries(sim, 0.8);
  ASSERT_EQ(clusters.size(), 2u);
  // Order-insensitive comparison.
  std::vector<std::vector<size_t>> expect = {{0, 1, 2}, {3, 4}};
  EXPECT_TRUE((clusters[0] == expect[0] && clusters[1] == expect[1]) ||
              (clusters[0] == expect[1] && clusters[1] == expect[0]))
      << "got " << clusters.size() << " clusters";
}

// ---- The component loop against the whole-batch O(n^3) loop ----

/// The whole-batch average-linkage loop ClusterQueries ran before it split
/// the batch into threshold components, kept verbatim as the oracle.
std::vector<std::vector<size_t>> OracleClusterQueries(
    const SimilarityMatrix& sim, double gamma) {
  const size_t n = sim.size();
  std::vector<std::vector<size_t>> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i] = {i};
  if (n < 2) return clusters;

  // pair_sum[i][j] = sum of µ over cross pairs of clusters i, j; average
  // linkage δ = pair_sum / (|Ci| * |Cj|). Merging i <- j updates sums by
  // simple addition, keeping every step O(n).
  std::vector<std::vector<double>> pair_sum(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) pair_sum[i][j] = sim.Get(i, j);
    }
  }
  std::vector<bool> active(n, true);

  while (true) {
    double best = gamma;
    size_t bi = n, bj = n;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        double delta = pair_sum[i][j] /
                       (static_cast<double>(clusters[i].size()) *
                        static_cast<double>(clusters[j].size()));
        if (delta > best) {
          best = delta;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == n) break;  // no pair above gamma
    // Merge bj into bi.
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters[bj].clear();
    active[bj] = false;
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi) continue;
      pair_sum[bi][k] += pair_sum[bj][k];
      pair_sum[k][bi] = pair_sum[bi][k];
    }
  }

  std::vector<std::vector<size_t>> out;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) {
      std::sort(clusters[i].begin(), clusters[i].end());
      out.push_back(std::move(clusters[i]));
    }
  }
  return out;
}

void ExpectMatchesOracle(const SimilarityMatrix& sim, double gamma,
                         const std::string& what) {
  // Membership and cluster order, byte for byte.
  EXPECT_EQ(ClusterQueries(sim, gamma), OracleClusterQueries(sim, gamma))
      << what << " (n " << sim.size() << ", gamma " << gamma << ")";
}

TEST(ClusteringOracle, TinyBatches) {
  for (double gamma : {0.0, 0.5, 1.0}) {
    ExpectMatchesOracle(SimilarityMatrix(0), gamma, "n=0");
    ExpectMatchesOracle(SimilarityMatrix(1), gamma, "n=1");
    for (double v : {0.0, 0.5, 0.7, 1.0}) {
      SimilarityMatrix sim(2);
      sim.Set(0, 1, v);
      ExpectMatchesOracle(sim, gamma, "n=2");
    }
  }
}

TEST(ClusteringOracle, RoundedAverageOfCellsEqualToGamma) {
  // {0,1,2} merge first; δ({0,1,2},{3}) = (0.1 + 0.1 + 0.1) / 3 rounds to
  // 0.10000000000000002 > 0.1, so 3 joins although no cell exceeds γ: the
  // components must not split {0,1,2} from 3 at exactly γ.
  SimilarityMatrix sim(5);
  sim.Set(0, 1, 0.9);
  sim.Set(0, 2, 0.9);
  sim.Set(1, 2, 0.9);
  for (size_t i = 0; i < 3; ++i) sim.Set(i, 3, 0.1);
  sim.Set(3, 4, 0.05);
  const auto oracle = OracleClusterQueries(sim, 0.1);
  ASSERT_EQ(oracle.size(), 2u);
  EXPECT_EQ(oracle[0], (std::vector<size_t>{0, 1, 2, 3}));
  ExpectMatchesOracle(sim, 0.1, "rounded average");
}

/// A random symmetric matrix: each off-diagonal cell is nonzero with
/// probability `density`, drawn from a small value set that contains the
/// thresholds tested (so cells equal to γ and δ ties are common).
SimilarityMatrix RandomMatrix(size_t n, double density, Rng& rng) {
  static const double kValues[] = {0.05, 0.1, 0.25, 0.3, 0.5,
                                   0.6,  0.75, 0.8, 0.9, 1.0};
  SimilarityMatrix sim(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.NextBernoulli(density)) {
        sim.Set(i, j, kValues[rng.NextBounded(std::size(kValues))]);
      }
    }
  }
  return sim;
}

TEST(ClusteringOracle, RandomSparseAndDenseMatrices) {
  Rng rng(2024);
  const double gammas[] = {0.0, 0.1, 0.3, 0.5, 0.75, 0.9, 1.0};
  for (int round = 0; round < 300; ++round) {
    const size_t n = rng.NextBounded(45);
    const double density = round % 3 == 0   ? 1.0
                           : round % 3 == 1 ? 0.3
                                            : 0.03;
    const SimilarityMatrix sim = RandomMatrix(n, density, rng);
    const double gamma = gammas[rng.NextBounded(std::size(gammas))];
    ExpectMatchesOracle(sim, gamma, "round " + std::to_string(round));
  }
}

TEST(ClusteringOracle, ExactMatricesOfGeneratedBatches) {
  // Real µ from the exact kernel: random batches on a small-world graph,
  // with clone queries so some components have several members.
  Rng grng(5);
  auto g = GenerateSmallWorld(4000, 3, 0.1, grng);
  Rng qrng(6);
  for (int round = 0; round < 6; ++round) {
    std::vector<PathQuery> qs;
    while (qs.size() < 80) {
      const VertexId s = static_cast<VertexId>(qrng.NextBounded(4000));
      const VertexId t = static_cast<VertexId>(qrng.NextBounded(4000));
      if (s == t) continue;
      const int k = 2 + static_cast<int>(qrng.NextBounded(4));
      qs.push_back({s, t, k});
      if (qrng.NextBernoulli(0.3)) qs.push_back({s, t, 1 + k % 5});
    }
    DistanceIndex index;
    BuildBatchIndex(*g, qs, &index, nullptr);
    const SimilarityMatrix sim =
        ComputeSimilarityMatrix(*g, qs, index, SimilarityMode::kExact);
    for (double gamma : {0.0, 0.3, 0.5, 0.8, 1.0}) {
      ExpectMatchesOracle(sim, gamma, "batch " + std::to_string(round));
    }
  }
}

TEST(Clustering, SingleQueryTrivial) {
  SimilarityMatrix sim(1);
  auto clusters = ClusterQueries(sim, 0.5);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0}));
}

}  // namespace
}  // namespace hcpath

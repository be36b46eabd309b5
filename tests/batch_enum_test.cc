#include "core/batch_enum.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "graph/generators.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

std::vector<PathSet> OracleResults(const Graph& g,
                                   const std::vector<PathQuery>& queries) {
  std::vector<PathSet> out;
  for (const PathQuery& q : queries) {
    out.push_back(*BruteForcePaths(g, q));
  }
  return out;
}

void ExpectBatchMatchesOracle(const Graph& g,
                              const std::vector<PathQuery>& queries,
                              const BatchOptions& options,
                              bool optimized_order) {
  CollectingSink sink(queries.size());
  BatchStats stats;
  Status st = RunBatchEnum(g, queries, options, optimized_order, &sink,
                           &stats);
  ASSERT_TRUE(st.ok()) << st;
  auto oracle = OracleResults(g, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sink.paths(i).ToSortedVectors(), oracle[i].ToSortedVectors())
        << "query " << i << " " << queries[i].ToString();
  }
}

TEST(BatchEnum, PaperExampleAllGammas) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  for (double gamma : {0.1, 0.5, 0.8, 1.0}) {
    BatchOptions opt;
    opt.gamma = gamma;
    ExpectBatchMatchesOracle(g, queries, opt, false);
    ExpectBatchMatchesOracle(g, queries, opt, true);
  }
}

TEST(BatchEnum, SharingActuallyHappensOnCloneQueries) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> queries(6, PathQuery{0, 11, 5});
  CountingSink sink(queries.size());
  BatchStats stats;
  BatchOptions opt;
  ASSERT_TRUE(RunBatchEnum(g, queries, opt, false, &sink, &stats).ok());
  for (uint64_t c : sink.counts()) EXPECT_EQ(c, 3u);
  // All six queries share one forward and one backward root.
  EXPECT_EQ(stats.sharing_nodes, 2u);
}

TEST(BatchEnum, DominatingQueriesReduceExpansions) {
  Graph g = PaperFigure1Graph();
  // q0, q1 share the (v4, v9, ...) and (v1, v7, ...) subtrees.
  std::vector<PathQuery> queries = {{0, 11, 5}, {2, 13, 5}, {5, 12, 5}};
  BatchOptions opt;
  opt.gamma = 0.5;

  BatchStats shared_stats;
  CountingSink s1(3);
  ASSERT_TRUE(RunBatchEnum(g, queries, opt, false, &s1, &shared_stats).ok());

  BatchOptions no_reuse = opt;
  no_reuse.disable_cache_reuse = true;
  BatchStats solo_stats;
  CountingSink s2(3);
  ASSERT_TRUE(
      RunBatchEnum(g, queries, no_reuse, false, &s2, &solo_stats).ok());

  EXPECT_EQ(s1.counts(), s2.counts());
  EXPECT_GT(shared_stats.shortcut_splices, 0u);
  EXPECT_LT(shared_stats.edges_expanded, solo_stats.edges_expanded);
}

TEST(BatchEnum, GlobalMinPruningMatchesPerTarget) {
  Rng rng(13);
  auto g = GenerateBarabasiAlbert(150, 3, rng);
  Rng qrng(17);
  std::vector<PathQuery> queries;
  while (queries.size() < 10) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(150));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(150));
    if (s != t) queries.push_back({s, t, 5});
  }
  BatchOptions per_target;
  per_target.shared_pruning = SharedPruning::kPerTarget;
  BatchOptions global;
  global.shared_pruning = SharedPruning::kGlobalMin;

  CollectingSink a(queries.size()), b(queries.size());
  ASSERT_TRUE(RunBatchEnum(*g, queries, per_target, false, &a, nullptr).ok());
  ASSERT_TRUE(RunBatchEnum(*g, queries, global, false, &b, nullptr).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a.paths(i).Fingerprint(), b.paths(i).Fingerprint());
  }
}

TEST(BatchEnum, DisableClusteringStillCorrect) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  BatchOptions opt;
  opt.disable_clustering = true;
  ExpectBatchMatchesOracle(g, queries, opt, false);
}

TEST(BatchEnum, UnreachableQueriesReturnZeroPaths) {
  auto g = GeneratePath(10);
  std::vector<PathQuery> queries = {{0, 9, 4},   // unreachable within 4
                                    {0, 3, 4},   // 1 path
                                    {9, 0, 8}};  // wrong direction
  CountingSink sink(3);
  BatchOptions opt;
  ASSERT_TRUE(RunBatchEnum(*g, queries, opt, false, &sink, nullptr).ok());
  EXPECT_EQ(sink.counts()[0], 0u);
  EXPECT_EQ(sink.counts()[1], 1u);
  EXPECT_EQ(sink.counts()[2], 0u);
}

TEST(BatchEnum, MaxPathsPerQueryFailsCleanly) {
  auto g = GenerateComplete(10);
  std::vector<PathQuery> queries = {{0, 9, 5}};
  BatchOptions opt;
  opt.max_paths_per_query = 10;
  CountingSink sink(1);
  Status st = RunBatchEnum(*g, queries, opt, false, &sink, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(BatchEnum, CacheCapFailsCleanly) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> queries(4, PathQuery{0, 11, 5});
  BatchOptions opt;
  opt.max_cache_vertices = 2;  // absurdly small
  CountingSink sink(4);
  Status st = RunBatchEnum(g, queries, opt, false, &sink, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(BatchEnum, PhaseTimersAreFilled) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  BatchStats stats;
  CountingSink sink(queries.size());
  BatchOptions opt;
  ASSERT_TRUE(RunBatchEnum(g, queries, opt, false, &sink, &stats).ok());
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.build_index_seconds, 0.0);
  EXPECT_GT(stats.num_clusters, 0u);
  EXPECT_EQ(stats.paths_emitted, 3u + 3 + 1 + 2 + 2);
  // ClusterQuery is reported split into the µ matrix and the linkage.
  EXPECT_GT(stats.similarity_seconds, 0.0);
  EXPECT_GE(stats.linkage_seconds, 0.0);
  EXPECT_EQ(stats.cluster_seconds,
            stats.similarity_seconds + stats.linkage_seconds);
  // At most C(5, 2) pairs are evaluated, and the figure's queries overlap.
  EXPECT_GT(stats.similarity_pairs, 0u);
  EXPECT_LE(stats.similarity_pairs, 10u);
  BatchStats sum;
  sum.Accumulate(stats);
  sum.Accumulate(stats);
  EXPECT_EQ(sum.similarity_pairs, 2 * stats.similarity_pairs);
  EXPECT_EQ(sum.linkage_seconds, 2 * stats.linkage_seconds);
  EXPECT_NE(stats.ToString().find("linkage="), std::string::npos);
}

}  // namespace
}  // namespace hcpath

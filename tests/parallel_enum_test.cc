// Determinism of the parallel batch engines: with any worker count, the
// emitted path stream, per-query counts, and work counters must be
// byte-identical to the single-threaded reference run (num_threads = 1).
// This suite is also the TSan workload (`ctest -L tsan` under
// -DHCPATH_SANITIZE=thread).

#include <gtest/gtest.h>

#include "bfs/msbfs.h"
#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "graph/generators.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

std::vector<PathQuery> RandomQueries(const Graph& g, size_t n, int k,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<PathQuery> queries;
  while (queries.size() < n) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (s != t) queries.push_back({s, t, k});
  }
  return queries;
}

/// Runs `algorithm` with 1 and with `threads` workers and asserts the
/// emission streams (order included), counts, and counters are identical.
void ExpectParallelMatchesSequential(
    const Graph& g, const std::vector<PathQuery>& queries,
    const BatchOptions& base, bool batch_enum, bool optimized_order,
    int threads) {
  BatchOptions seq = base;
  seq.num_threads = 1;
  BatchOptions par = base;
  par.num_threads = threads;

  CollectingSink seq_sink(queries.size()), par_sink(queries.size());
  BatchStats seq_stats, par_stats;
  Status s1, s2;
  if (batch_enum) {
    s1 = RunBatchEnum(g, queries, seq, optimized_order, &seq_sink, &seq_stats);
    s2 = RunBatchEnum(g, queries, par, optimized_order, &par_sink, &par_stats);
  } else {
    s1 = RunBasicEnum(g, queries, seq, optimized_order, &seq_sink, &seq_stats);
    s2 = RunBasicEnum(g, queries, par, optimized_order, &par_sink, &par_stats);
  }
  ASSERT_TRUE(s1.ok()) << s1;
  ASSERT_TRUE(s2.ok()) << s2;

  for (size_t i = 0; i < queries.size(); ++i) {
    const PathSet& a = seq_sink.paths(i);
    const PathSet& b = par_sink.paths(i);
    ASSERT_EQ(a.size(), b.size()) << "query " << i;
    // Byte-identical emission: same paths in the same order.
    for (size_t p = 0; p < a.size(); ++p) {
      EXPECT_TRUE(std::equal(a[p].begin(), a[p].end(), b[p].begin(),
                             b[p].end()))
          << "query " << i << " path " << p;
    }
  }
  // Work counters must merge to the sequential totals.
  EXPECT_EQ(seq_stats.paths_emitted, par_stats.paths_emitted);
  EXPECT_EQ(seq_stats.edges_expanded, par_stats.edges_expanded);
  EXPECT_EQ(seq_stats.edges_pruned, par_stats.edges_pruned);
  EXPECT_EQ(seq_stats.join_probes, par_stats.join_probes);
  EXPECT_EQ(seq_stats.join_rejected, par_stats.join_rejected);
  EXPECT_EQ(seq_stats.num_clusters, par_stats.num_clusters);
  EXPECT_EQ(seq_stats.similarity_pairs, par_stats.similarity_pairs);
  EXPECT_EQ(seq_stats.sharing_nodes, par_stats.sharing_nodes);
  EXPECT_EQ(seq_stats.dominating_nodes, par_stats.dominating_nodes);
  EXPECT_EQ(seq_stats.shortcut_splices, par_stats.shortcut_splices);
  EXPECT_EQ(seq_stats.cached_paths, par_stats.cached_paths);
  EXPECT_EQ(seq_stats.cache_peak_vertices, par_stats.cache_peak_vertices);
}

TEST(ParallelEnum, BatchEnumPaperGraphFourThreads) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  for (double gamma : {0.1, 0.5, 1.0}) {
    BatchOptions opt;
    opt.gamma = gamma;
    ExpectParallelMatchesSequential(g, queries, opt, /*batch_enum=*/true,
                                    /*optimized_order=*/false, 4);
    ExpectParallelMatchesSequential(g, queries, opt, /*batch_enum=*/true,
                                    /*optimized_order=*/true, 4);
  }
}

TEST(ParallelEnum, BasicEnumPaperGraphFourThreads) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  BatchOptions opt;
  ExpectParallelMatchesSequential(g, queries, opt, /*batch_enum=*/false,
                                  /*optimized_order=*/false, 4);
  ExpectParallelMatchesSequential(g, queries, opt, /*batch_enum=*/false,
                                  /*optimized_order=*/true, 4);
}

TEST(ParallelEnum, BatchEnumRandomGraphManyClusters) {
  Rng rng(7);
  auto g = GenerateBarabasiAlbert(300, 3, rng);
  ASSERT_TRUE(g.ok());
  auto queries = RandomQueries(*g, 40, 4, 11);
  for (int threads : {2, 4, 8}) {
    BatchOptions opt;
    ExpectParallelMatchesSequential(*g, queries, opt, /*batch_enum=*/true,
                                    /*optimized_order=*/false, threads);
  }
}

TEST(ParallelEnum, BasicEnumRandomGraph) {
  Rng rng(19);
  auto g = GenerateErdosRenyi(200, 800, rng);
  ASSERT_TRUE(g.ok());
  auto queries = RandomQueries(*g, 30, 5, 23);
  BatchOptions opt;
  ExpectParallelMatchesSequential(*g, queries, opt, /*batch_enum=*/false,
                                  /*optimized_order=*/false, 4);
}

TEST(ParallelEnum, ZeroMeansHardwareConcurrency) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  BatchOptions opt;
  opt.num_threads = 0;  // hardware_concurrency; must stay correct
  CollectingSink sink(queries.size());
  ASSERT_TRUE(RunBatchEnum(g, queries, opt, false, &sink, nullptr).ok());
  EXPECT_EQ(sink.paths(0).size(), 3u);
  EXPECT_EQ(sink.paths(1).size(), 3u);
  EXPECT_EQ(sink.paths(2).size(), 1u);
  EXPECT_EQ(sink.paths(3).size(), 2u);
  EXPECT_EQ(sink.paths(4).size(), 2u);
}

TEST(ParallelEnum, ErrorsSurfaceDeterministically) {
  auto g = GenerateComplete(10);
  ASSERT_TRUE(g.ok());
  std::vector<PathQuery> queries = {{0, 9, 5}, {1, 8, 5}};
  BatchOptions opt;
  opt.max_paths_per_query = 10;
  opt.num_threads = 4;
  CountingSink sink(queries.size());
  Status st = RunBatchEnum(*g, queries, opt, false, &sink, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(ParallelEnum, FailingClusterEmitsSameStreamAsSequential) {
  // Two clusters with disjoint neighborhoods: a complete blob (explodes
  // under a tiny max_paths cap) and a long path (exactly one result). The
  // healthy cluster comes first in query order, so the parallel merge must
  // replay it — and any pre-error paths of the failing cluster — before
  // surfacing the error, exactly like the sequential early return.
  GraphBuilder b(20);
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = 0; v < 10; ++v) {
      if (u != v) b.AddEdge(u, v);
    }
  }
  for (VertexId v = 10; v < 19; ++v) b.AddEdge(v, v + 1);
  Graph g = *b.Build();

  std::vector<PathQuery> queries = {{10, 19, 9}, {0, 9, 5}};
  BatchOptions seq;
  seq.max_paths_per_query = 10;
  seq.num_threads = 1;
  BatchOptions par = seq;
  par.num_threads = 4;

  CollectingSink seq_sink(2), par_sink(2);
  BatchStats seq_stats, par_stats;
  Status s1 = RunBatchEnum(g, queries, seq, false, &seq_sink, &seq_stats);
  Status s2 = RunBatchEnum(g, queries, par, false, &par_sink, &par_stats);
  ASSERT_GT(seq_stats.num_clusters, 1u);  // the scenario needs >= 2 clusters
  EXPECT_EQ(s1.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s2.code(), s1.code());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(seq_sink.paths(i).ToSortedVectors(),
              par_sink.paths(i).ToSortedVectors())
        << "query " << i;
  }
  EXPECT_EQ(seq_sink.paths(0).size(), 1u);  // healthy cluster fully emitted
}

TEST(ParallelEnum, MsBfsWaveShardingMatchesSequential) {
  Rng rng(5);
  auto g = GenerateBarabasiAlbert(500, 4, rng);
  ASSERT_TRUE(g.ok());
  // > 64 unique sources forces several waves.
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  Rng srng(31);
  for (int i = 0; i < 150; ++i) {
    sources.push_back(static_cast<VertexId>(srng.NextBounded(500)));
    caps.push_back(static_cast<Hop>(2 + srng.NextBounded(4)));
  }
  MsBfsResult seq =
      MultiSourceBfs(*g, sources, caps, Direction::kForward, nullptr);
  ThreadPool pool(4);
  MsBfsResult par =
      MultiSourceBfs(*g, sources, caps, Direction::kForward, &pool);

  EXPECT_EQ(seq.total_discovered, par.total_discovered);
  EXPECT_EQ(seq.min_dist, par.min_dist);
  ASSERT_EQ(seq.per_source.size(), par.per_source.size());
  for (size_t i = 0; i < seq.per_source.size(); ++i) {
    EXPECT_EQ(seq.per_source[i].size(), par.per_source[i].size()) << i;
    EXPECT_EQ(seq.per_source[i].SortedKeys(), par.per_source[i].SortedKeys())
        << i;
    seq.per_source[i].ForEach([&](VertexId v, Hop d) {
      EXPECT_EQ(par.per_source[i].Lookup(v), d) << "source " << i;
    });
  }
}

}  // namespace
}  // namespace hcpath

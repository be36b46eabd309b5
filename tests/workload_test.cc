#include <gtest/gtest.h>

#include <cstring>

#include "bfs/bfs.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"
#include "workload/similarity_gen.h"

namespace hcpath {
namespace {

TEST(QueryGen, AllQueriesAreReachableWithinK) {
  Rng grng(1);
  auto g = MakeDataset("EP", 0.05, 7);
  ASSERT_TRUE(g.ok()) << g.status();
  Rng rng(2);
  QueryGenOptions opt;
  opt.k_min = 3;
  opt.k_max = 6;
  auto queries = GenerateRandomQueries(*g, 30, opt, rng);
  ASSERT_TRUE(queries.ok()) << queries.status();
  ASSERT_EQ(queries->size(), 30u);
  for (const PathQuery& q : *queries) {
    EXPECT_NE(q.s, q.t);
    EXPECT_GE(q.k, 3);
    EXPECT_LE(q.k, 6);
    EXPECT_TRUE(ReachableWithin(*g, q.s, q.t, static_cast<Hop>(q.k)))
        << q.ToString();
  }
}

TEST(QueryGen, DeterministicPerSeed) {
  auto g = MakeDataset("EP", 0.05, 7);
  Rng a(5), b(5);
  auto qa = GenerateRandomQueries(*g, 10, {}, a);
  auto qb = GenerateRandomQueries(*g, 10, {}, b);
  ASSERT_TRUE(qa.ok() && qb.ok());
  EXPECT_EQ(*qa, *qb);
}

TEST(QueryGen, RejectsBadKRange) {
  auto g = MakeDataset("EP", 0.05, 7);
  Rng rng(1);
  QueryGenOptions opt;
  opt.k_min = 0;
  EXPECT_FALSE(GenerateRandomQueries(*g, 5, opt, rng).ok());
  opt.k_min = 5;
  opt.k_max = 4;
  EXPECT_FALSE(GenerateRandomQueries(*g, 5, opt, rng).ok());
}

TEST(SimilarityGen, HitsLowAndHighTargets) {
  // Scale/hop range chosen so k-hop balls stay far below |V|; otherwise
  // every query pair saturates to µ ≈ 1 and similarity is meaningless.
  auto g = MakeDataset("EP", 0.3, 11);
  ASSERT_TRUE(g.ok());
  Rng rng(13);
  auto low = GenerateQueriesWithSimilarity(*g, 40, 3, 4, 0.0, rng);
  ASSERT_TRUE(low.ok()) << low.status();
  // Scale-free graphs have an intrinsic µ floor (hub-concentrated reach
  // sets overlap even for unrelated queries); require it to stay moderate.
  EXPECT_LT(low->achieved_mu, 0.5);

  Rng rng2(17);
  auto high = GenerateQueriesWithSimilarity(*g, 40, 3, 4, 0.8, rng2);
  ASSERT_TRUE(high.ok()) << high.status();
  EXPECT_GT(high->achieved_mu, 0.55);
  EXPECT_EQ(high->queries.size(), 40u);
  // The generator must produce clearly separated similarity levels.
  EXPECT_GT(high->achieved_mu - low->achieved_mu, 0.2);
}

/// FNV-1a over the generated (s, t, k) triples and the bits of µ_Q.
uint64_t QuerySetHash(const SimilarQuerySet& set) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const PathQuery& q : set.queries) {
    mix(q.s);
    mix(q.t);
    mix(static_cast<uint64_t>(q.k));
  }
  uint64_t mu_bits;
  static_assert(sizeof(mu_bits) == sizeof(set.achieved_mu));
  std::memcpy(&mu_bits, &set.achieved_mu, sizeof(mu_bits));
  mix(mu_bits);
  return h;
}

TEST(SimilarityGen, GoldenQuerySets) {
  // The generator's bisection measures µ_Q with a fixed mode rule (sketch
  // once |Q|^2 * |V|/64 > 1e7, else exact), independent of the clustering
  // cost rule, so a given graph and seed keep drawing the same batches.
  // The first case measures exactly; the other two sketch sets of more
  // than 256 vertices, where kAuto would count exactly (ScanCount) and
  // draw other batches or report another µ_Q. The hashes were recorded
  // before ComputeSimilarityMatrix gained ScanCount.
  struct Case {
    double scale;
    size_t count;
    int k_min, k_max;
    double target_mu;
    uint64_t seed;
    uint64_t want;
  };
  const Case cases[] = {
      {0.3, 60, 3, 4, 0.5, 31, 0x4f1b1656ee40a68aULL},
      {1.0, 100, 4, 7, 0.3, 61, 0xc57344c4f907710fULL},
      {1.0, 100, 4, 7, 0.0, 61, 0x27b6e55dfef764cbULL},
  };
  for (const Case& c : cases) {
    auto g = MakeDataset("EP", c.scale, 11);
    ASSERT_TRUE(g.ok());
    Rng rng(c.seed);
    auto set = GenerateQueriesWithSimilarity(*g, c.count, c.k_min, c.k_max,
                                             c.target_mu, rng);
    ASSERT_TRUE(set.ok()) << set.status();
    EXPECT_EQ(QuerySetHash(*set), c.want)
        << c.count << " queries: got 0x" << std::hex << QuerySetHash(*set)
        << " (mu " << set->achieved_mu << ")";
  }
}

TEST(SimilarityGen, RejectsImpossibleTarget) {
  auto g = MakeDataset("EP", 0.05, 11);
  Rng rng(1);
  EXPECT_FALSE(GenerateQueriesWithSimilarity(*g, 10, 4, 6, 1.5, rng).ok());
}

TEST(DatasetRegistry, HasAllTwelvePaperDatasets) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 12u);
  std::vector<std::string> names;
  for (const auto& spec : all) names.push_back(spec.name);
  EXPECT_EQ(names, (std::vector<std::string>{"EP", "SL", "BK", "WT", "BS",
                                             "SK", "UK", "DA", "PO", "LJ",
                                             "TW", "FS"}));
}

TEST(DatasetRegistry, FindAndMissing) {
  EXPECT_TRUE(FindDataset("TW").ok());
  EXPECT_EQ(FindDataset("TW")->full_name, "Twitter-2010");
  EXPECT_FALSE(FindDataset("XX").ok());
  EXPECT_FALSE(MakeDataset("XX", 1.0, 1).ok());
}

TEST(DatasetRegistry, ScaleShrinksGraphs) {
  auto small = MakeDataset("EP", 0.05, 3);
  auto bigger = MakeDataset("EP", 0.1, 3);
  ASSERT_TRUE(small.ok() && bigger.ok());
  EXPECT_LT(small->NumVertices(), bigger->NumVertices());
  EXPECT_LT(small->NumEdges(), bigger->NumEdges());
}

TEST(DatasetRegistry, DeterministicForSeed) {
  auto a = MakeDataset("BK", 0.05, 42);
  auto b = MakeDataset("BK", 0.05, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->NumEdges(), b->NumEdges());
  EXPECT_EQ(a->Edges(), b->Edges());
}

TEST(DatasetRegistry, EveryStandInInstantiatesAtTinyScale) {
  for (const auto& spec : AllDatasets()) {
    auto g = MakeDataset(spec.name, 0.05, 1);
    ASSERT_TRUE(g.ok()) << spec.name << ": " << g.status();
    EXPECT_GT(g->NumVertices(), 0u) << spec.name;
    EXPECT_GT(g->NumEdges(), 0u) << spec.name;
  }
}

}  // namespace
}  // namespace hcpath

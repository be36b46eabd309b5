// Micro-benchmarks (google-benchmark) for the kernels underlying every
// experiment: hop-capped BFS, bit-parallel MS-BFS, the distance map, path
// storage, the canonical-split join, and the three enumeration hot-loop
// membership kernels rewritten onto epoch stamps (docs/PERF.md): the DFS
// on-path test, the shortcut-splice disjointness check, and the join-probe
// disjointness check — each on dense-overlap (rejection-heavy) and
// no-overlap (acceptance-heavy) path sets so before/after is quantifiable
// per kernel. Also: the batched stamp probes (AVX2 gather vs the scalar
// fallback, pinned via TestOnlyForceScalar), and the ClusterQuery
// similarity matrix on sparse and dense reach sets. A 1-iteration smoke
// run is wired into ctest (-L bench).

#include <benchmark/benchmark.h>

#include "bfs/bfs.h"
#include "bfs/msbfs.h"
#include "core/basic_enum.h"
#include "core/join.h"
#include "core/search.h"
#include "core/similarity.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/epoch_stamp.h"
#include "util/rng.h"

namespace hcpath {
namespace {

const Graph& BenchGraph() {
  static const Graph* g = [] {
    Rng rng(7);
    return new Graph(*GenerateBarabasiAlbert(100000, 4, rng));
  }();
  return *g;
}

void BM_HopCappedBfs(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const Hop cap = static_cast<Hop>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    VertexDistMap d = HopCappedBfs(g, s, cap, Direction::kForward);
    benchmark::DoNotOptimize(d.size());
  }
}
BENCHMARK(BM_HopCappedBfs)->Arg(3)->Arg(5)->Arg(7);

void BM_MultiSourceBfs(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const size_t num_sources = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
    caps.push_back(5);
  }
  for (auto _ : state) {
    MsBfsResult r = MultiSourceBfs(g, sources, caps, Direction::kForward);
    benchmark::DoNotOptimize(r.total_discovered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_sources));
}
BENCHMARK(BM_MultiSourceBfs)->Arg(64)->Arg(256);

void BM_SequentialBfsBaseline(benchmark::State& state) {
  // The baseline MS-BFS replaces: one hop-capped BFS per source.
  const Graph& g = BenchGraph();
  const size_t num_sources = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<VertexId> sources;
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
  }
  for (auto _ : state) {
    uint64_t total = 0;
    for (VertexId s : sources) {
      total += HopCappedBfs(g, s, 5, Direction::kForward).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_sources));
}
BENCHMARK(BM_SequentialBfsBaseline)->Arg(64)->Arg(256);

void BM_VertexDistMapLookup(benchmark::State& state) {
  VertexDistMap map;
  Rng rng(23);
  for (int i = 0; i < 100000; ++i) {
    map.InsertMin(static_cast<VertexId>(rng.NextBounded(1u << 24)), 3);
  }
  Rng probe(29);
  for (auto _ : state) {
    Hop d = map.Lookup(static_cast<VertexId>(probe.NextBounded(1u << 24)));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_VertexDistMapLookup);

void BM_PathSetAppend(benchmark::State& state) {
  std::vector<VertexId> path = {1, 2, 3, 4, 5, 6};
  for (auto _ : state) {
    PathSet ps;
    for (int i = 0; i < 1000; ++i) ps.Add(path);
    benchmark::DoNotOptimize(ps.TotalVertices());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PathSetAppend);

void BM_HalfSearch(benchmark::State& state) {
  const Graph& g = BenchGraph();
  VertexDistMap to_t = HopCappedBfs(g, 12345, 6, Direction::kBackward);
  TargetSlack slack[] = {{&to_t, 6}};
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 777;
    spec.budget = 3;
    spec.dir = Direction::kForward;
    spec.slacks = slack;
    PathSet out;
    Status st = RunHalfSearch(g, spec, &out, nullptr);
    benchmark::DoNotOptimize(out.size());
    benchmark::DoNotOptimize(st.ok());
  }
}
BENCHMARK(BM_HalfSearch);

/// BM_HalfSearch with the kernel dispatch resolved ONCE outside the loop —
/// the hoist every production entry point (enumerator facade, batch
/// engines, PathEngine views) now performs per graph instead of per
/// search. The delta against BM_HalfSearch is the per-search resolution
/// setup BENCH_PR6.json's micro_kernels_note flagged.
void BM_HalfSearchPreResolved(benchmark::State& state) {
  const Graph& g = BenchGraph();
  VertexDistMap to_t = HopCappedBfs(g, 12345, 6, Direction::kBackward);
  TargetSlack slack[] = {{&to_t, 6}};
  const ResolvedKernel rk = ResolveKernel(KernelMode::kAuto, g);
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 777;
    spec.budget = 3;
    spec.dir = Direction::kForward;
    spec.slacks = slack;
    spec.resolved = rk;
    PathSet out;
    Status st = RunHalfSearch(g, spec, &out, nullptr);
    benchmark::DoNotOptimize(out.size());
    benchmark::DoNotOptimize(st.ok());
  }
}
BENCHMARK(BM_HalfSearchPreResolved);

void BM_CanonicalJoin(benchmark::State& state) {
  const Graph& g = BenchGraph();
  PathSet fwd, bwd;
  HalfSearchSpec f;
  f.start = 777;
  f.budget = 3;
  f.dir = Direction::kForward;
  (void)RunHalfSearch(g, f, &fwd, nullptr);
  HalfSearchSpec b;
  b.start = 888;
  b.budget = 3;
  b.dir = Direction::kBackward;
  (void)RunHalfSearch(g, b, &bwd, nullptr);
  CountingSink sink(1);
  for (auto _ : state) {
    JoinSpec join;
    join.forward = &fwd;
    join.backward = &bwd;
    join.s = 777;
    join.t = 888;
    join.hf = 3;
    join.hb = 3;
    auto emitted = JoinAndEmit(join, 0, &sink, nullptr);
    benchmark::DoNotOptimize(emitted.ok());
  }
}
BENCHMARK(BM_CanonicalJoin);

// ---------------------------------------------------------------------------
// Membership-kernel benchmarks. Each drives one of the three hot-loop
// kernels through its public entry point on synthetic path sets whose
// shape isolates the membership work:
//   * overlap == 1 ("dense overlap"): every candidate shares a vertex with
//     the stamped path, placed so the check runs its full length before
//     rejecting — the disjointness test is all the kernel does;
//   * overlap == 0 ("no overlap"): every candidate is accepted, so the
//     numbers include the (identical) emission cost.
// ---------------------------------------------------------------------------

/// Builds the synthetic forward/backward sets of one join query: every
/// forward path has length hf and ends at the shared midpoint, every
/// backward path has length hb and tail == midpoint, so every pair is
/// probed. Vertex ids are disjoint between paths except as `overlap`
/// dictates.
struct JoinFixture {
  PathSet fwd, bwd;
  VertexId s = 0, t = 1;
  Hop hf, hb;

  JoinFixture(size_t num_paths, Hop half_len, bool overlap)
      : hf(half_len), hb(half_len) {
    const VertexId mid = 2;
    VertexId next = 3;
    std::vector<VertexId> path;
    for (size_t i = 0; i < num_paths; ++i) {
      path.clear();
      path.push_back(s);
      for (Hop h = 1; h < hf; ++h) path.push_back(next++);
      path.push_back(mid);
      fwd.Add(path);
    }
    for (size_t i = 0; i < num_paths; ++i) {
      path.clear();
      path.push_back(t);
      for (Hop h = 1; h < hb; ++h) path.push_back(next++);
      if (overlap && hb >= 2) {
        // Collide on `s` (in every forward path) at the last internal
        // position the check visits, so every pair rejects — but only
        // after the naive scan has paid its full O(|pb| x |pf|) cost.
        path.back() = s;
      }
      path.push_back(mid);
      bwd.Add(path);
    }
  }
};

void BM_JoinProbeDisjoint(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const Hop half_len = static_cast<Hop>(state.range(1));
  const size_t kPaths = 32;
  JoinFixture fx(kPaths, half_len, overlap);
  CountingSink sink(1);
  uint64_t probes = 0;
  for (auto _ : state) {
    JoinSpec join;
    join.forward = &fx.fwd;
    join.backward = &fx.bwd;
    join.s = fx.s;
    join.t = fx.t;
    join.hf = fx.hf;
    join.hb = fx.hb;
    BatchStats stats;
    auto emitted = JoinAndEmit(join, 0, &sink, &stats);
    benchmark::DoNotOptimize(emitted.ok());
    probes += stats.join_probes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes));
}
BENCHMARK(BM_JoinProbeDisjoint)
    ->ArgNames({"overlap", "len"})
    ->Args({1, 8})
    ->Args({0, 8})
    ->Args({1, 12})
    ->Args({0, 12});

/// Chain graph 0 -> 1 -> ... -> prefix_len with a shortcut dep at the
/// chain's end: the DFS walks the full prefix, then splices every cached
/// suffix, so the run is dominated by the splice disjointness check of
/// `num_cached` suffixes of length `suffix_len` against a stamped prefix.
void BM_SpliceDisjoint(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const Hop kPrefixLen = 16;
  const Hop kSuffixLen = 8;
  const size_t kNumCached = 256;
  const VertexId dep_vertex = kPrefixLen;
  GraphBuilder b(dep_vertex + 1 + kNumCached * kSuffixLen);
  for (VertexId v = 0; v < dep_vertex; ++v) b.AddEdge(v, v + 1);
  Graph g = *b.Build();

  PathSet cached;
  std::vector<VertexId> path;
  VertexId next = dep_vertex + 1;
  for (size_t i = 0; i < kNumCached; ++i) {
    path.clear();
    path.push_back(dep_vertex);
    for (Hop h = 0; h < kSuffixLen; ++h) path.push_back(next++);
    // Collide on the last suffix vertex so the naive scan pays the full
    // O(|suffix| x |prefix|) cost before rejecting.
    if (overlap) path.back() = 3;
    cached.Add(path);
  }
  SearchDep dep[] = {{dep_vertex, kSuffixLen, &cached}};

  uint64_t splices = 0;
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 0;
    spec.budget = static_cast<Hop>(kPrefixLen + kSuffixLen);
    spec.dir = Direction::kForward;
    spec.deps = dep;
    PathSet out;
    BatchStats stats;
    Status st = RunHalfSearch(g, spec, &out, &stats);
    benchmark::DoNotOptimize(st.ok());
    splices += kNumCached;  // candidates tested per run
  }
  state.SetItemsProcessed(static_cast<int64_t>(splices));
}
BENCHMARK(BM_SpliceDisjoint)
    ->ArgNames({"overlap"})
    ->Arg(1)
    ->Arg(0);

/// Deep DFS on a complete graph: every edge expansion runs the on-path
/// membership test against a path of ~`budget` vertices, and expansions
/// vastly outnumber stored paths, so the run is dominated by that test.
void BM_DfsOnPath(benchmark::State& state) {
  const Hop budget = static_cast<Hop>(state.range(0));
  static const Graph* cg = new Graph(*GenerateComplete(9));
  const Graph& g = *cg;
  uint64_t expansions = 0;
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 0;
    spec.budget = budget;
    spec.dir = Direction::kForward;
    // Store only full-length paths so the run measures the membership
    // test, not result materialization.
    spec.filter_for_join = true;
    spec.store_target = 0;
    PathSet out;
    BatchStats stats;
    Status st = RunHalfSearch(g, spec, &out, &stats);
    benchmark::DoNotOptimize(st.ok());
    expansions += stats.edges_expanded;
  }
  state.SetItemsProcessed(static_cast<int64_t>(expansions));
}
BENCHMARK(BM_DfsOnPath)->ArgNames({"budget"})->Arg(6)->Arg(8);

// ---------------------------------------------------------------------------
// Batched stamp-probe benchmarks: the AVX2 gather kernel vs the unrolled
// scalar fallback on the same table and probe vectors, isolated from the
// enumeration loops (scalar == 1 pins the fallback via TestOnlyForceScalar;
// scalar == 0 lets the host dispatch — AVX2 where supported). Probe ids
// all miss, so TestAny scans its full span instead of early-exiting and
// both kernels do identical per-lane work.
// ---------------------------------------------------------------------------

/// Table with the low half of a 2^20 universe ~6% marked; probes drawn
/// from the unmarked high half.
struct StampFixture {
  EpochStampTable table;
  std::vector<uint32_t> probes;

  explicit StampFixture(size_t len) {
    constexpr uint32_t kUniverse = 1u << 20;
    table.Reserve(kUniverse);
    Rng rng(31);
    for (int i = 0; i < (1 << 16); ++i) {
      table.Mark(rng.NextBounded(kUniverse / 2));
    }
    for (size_t i = 0; i < len; ++i) {
      probes.push_back(kUniverse / 2 + rng.NextBounded(kUniverse / 2));
    }
  }
};

void BM_StampTestAny(benchmark::State& state) {
  const bool force_scalar = state.range(0) != 0;
  const size_t len = static_cast<size_t>(state.range(1));
  StampFixture fx(len);
  EpochStampTable::TestOnlyForceScalar(force_scalar ? 1 : 0);
  for (auto _ : state) {
    bool any = fx.table.TestAny(fx.probes);
    benchmark::DoNotOptimize(any);
  }
  EpochStampTable::TestOnlyForceScalar(-1);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_StampTestAny)
    ->ArgNames({"scalar", "len"})
    ->Args({1, 8})
    ->Args({0, 8})
    ->Args({1, 32})
    ->Args({0, 32})
    ->Args({1, 256})
    ->Args({0, 256});

void BM_StampTestBatch(benchmark::State& state) {
  const bool force_scalar = state.range(0) != 0;
  const size_t len = static_cast<size_t>(state.range(1));
  StampFixture fx(len);
  std::vector<uint8_t> hits(len);
  EpochStampTable::TestOnlyForceScalar(force_scalar ? 1 : 0);
  for (auto _ : state) {
    fx.table.TestBatch(fx.probes, hits.data());
    benchmark::DoNotOptimize(hits.data());
  }
  EpochStampTable::TestOnlyForceScalar(-1);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_StampTestBatch)
    ->ArgNames({"scalar", "len"})
    ->Args({1, 8})
    ->Args({0, 8})
    ->Args({1, 32})
    ->Args({0, 32})
    ->Args({1, 256})
    ->Args({0, 256});

/// ComputeSimilarityMatrix (Def 4.5, exact mode) on 64 random queries:
/// case 0 is sparse reach (Watts–Strogatz shaped like the EP stand-in,
/// 75k vertices, k = 4: Γ sets of a few hundred vertices), case 1 dense
/// reach (Barabási–Albert, 20k vertices, k = 5: Γ sets near |V|, where
/// the word-parallel AND is the cheaper loop). The index is rebuilt
/// outside the timed region every iteration, so no lazily cached key set
/// carries over from one timed call to the next.
void BM_SimilarityMatrix(benchmark::State& state) {
  const bool dense = state.range(0) == 1;
  static const Graph* sparse_g = [] {
    Rng rng(19);
    return new Graph(*GenerateSmallWorld(75000, 10, 0.01, rng));
  }();
  static const Graph* dense_g = [] {
    Rng rng(23);
    return new Graph(*GenerateBarabasiAlbert(20000, 4, rng));
  }();
  const Graph& g = dense ? *dense_g : *sparse_g;
  Rng rng(29);
  std::vector<PathQuery> queries;
  while (queries.size() < 64) {
    const auto s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (s != t) queries.push_back({s, t, dense ? 5 : 4});
  }
  DistanceIndex index;
  SimilarityScratch scratch;
  for (auto _ : state) {
    state.PauseTiming();
    BuildBatchIndex(g, queries, &index, nullptr);
    state.ResumeTiming();
    SimilarityMatrix sim = ComputeSimilarityMatrix(
        g, queries, index, SimilarityMode::kExact, nullptr, &scratch);
    benchmark::DoNotOptimize(sim.Get(0, 1));
  }
}
BENCHMARK(BM_SimilarityMatrix)
    ->ArgNames({"dense"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hcpath

BENCHMARK_MAIN();

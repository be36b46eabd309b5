// Seed-driven randomized differential suite: every configuration draws a
// random (graph, query batch, options) tuple and cross-checks
//   * RunBatchEnum / RunBasicEnum (both orders) against the BruteForce
//     oracle for identical per-query path sets,
//   * every engine's parallel runs (num_threads in {2, 8}) against its
//     sequential run for a byte-identical emission stream, identical
//     Status (code and message), and identical work counters,
//   * invalid-input and max_paths error configurations for identical
//     error semantics across thread counts.
//
// On failure the reproducing seed is printed via SCOPED_TRACE; re-run just
// that configuration with HCPATH_FUZZ_SEED=<seed>. HCPATH_FUZZ_CONFIGS
// overrides the number of configurations (default 200; the tsan smoke run
// registered in CMakeLists.txt uses a reduced count).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "core/brute_force.h"
#include "core/enumerator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "service/admission_status.h"
#include "service/fault_injector.h"
#include "service/path_engine.h"
#include "service/sharded_service.h"
#include "service/clock.h"
#include "util/rng.h"

namespace hcpath {
namespace {

class RecordingSink : public PathSink {
 public:
  using Event = std::pair<size_t, std::vector<VertexId>>;
  void OnPath(size_t qi, PathView p) override {
    events_.emplace_back(qi, std::vector<VertexId>(p.begin(), p.end()));
  }
  const std::vector<Event>& events() const { return events_; }

  std::vector<std::vector<VertexId>> SortedPathsOf(size_t qi) const {
    std::vector<std::vector<VertexId>> out;
    for (const Event& e : events_) {
      if (e.first == qi) out.push_back(e.second);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<Event> events_;
};

struct EngineRun {
  Status status;
  std::vector<RecordingSink::Event> events;
  BatchStats stats;
};

EngineRun RunEngine(const Graph& g, const std::vector<PathQuery>& queries,
                    bool batch_engine, bool optimized,
                    const BatchOptions& options) {
  EngineRun run;
  RecordingSink sink;
  run.status = batch_engine
                   ? RunBatchEnum(g, queries, options, optimized, &sink,
                                  &run.stats)
                   : RunBasicEnum(g, queries, options, optimized, &sink,
                                  &run.stats);
  run.events = sink.events();
  return run;
}

Graph RandomGraph(Rng& rng, std::string* desc) {
  switch (rng.NextBounded(7)) {
    case 0: {
      const VertexId n = static_cast<VertexId>(8 + rng.NextBounded(40));
      const uint64_t m = n + rng.NextBounded(3 * n);
      *desc = "erdos_renyi(n=" + std::to_string(n) +
              ", m=" + std::to_string(m) + ")";
      return *GenerateErdosRenyi(n, m, rng);
    }
    case 1: {
      const VertexId n = static_cast<VertexId>(10 + rng.NextBounded(40));
      const uint32_t d = static_cast<uint32_t>(2 + rng.NextBounded(3));
      *desc = "barabasi_albert(n=" + std::to_string(n) +
              ", d=" + std::to_string(d) + ")";
      return *GenerateBarabasiAlbert(n, d, rng);
    }
    case 2: {
      const VertexId n = static_cast<VertexId>(12 + rng.NextBounded(40));
      const uint32_t k = static_cast<uint32_t>(2 + rng.NextBounded(3));
      *desc = "small_world(n=" + std::to_string(n) +
              ", k=" + std::to_string(k) + ")";
      return *GenerateSmallWorld(n, k, 0.1, rng);
    }
    case 3: {
      const uint32_t r = static_cast<uint32_t>(3 + rng.NextBounded(4));
      const uint32_t c = static_cast<uint32_t>(3 + rng.NextBounded(4));
      *desc = "grid(" + std::to_string(r) + "x" + std::to_string(c) + ")";
      return *GenerateGrid(r, c);
    }
    case 4: {
      const VertexId n = static_cast<VertexId>(5 + rng.NextBounded(3));
      *desc = "complete(n=" + std::to_string(n) + ")";
      return *GenerateComplete(n);
    }
    case 5: {
      const VertexId n = static_cast<VertexId>(6 + rng.NextBounded(20));
      *desc = "path(n=" + std::to_string(n) + ")";
      return *GeneratePath(n);
    }
    default: {
      const VertexId n = static_cast<VertexId>(6 + rng.NextBounded(20));
      *desc = "cycle(n=" + std::to_string(n) + ")";
      return *GenerateCycle(n);
    }
  }
}

std::vector<PathQuery> RandomQueries(const Graph& g, Rng& rng,
                                     bool* invalid) {
  const size_t nq = rng.NextBounded(11);  // 0..10, empty batches included
  std::vector<PathQuery> queries;
  const VertexId n = g.NumVertices();
  while (queries.size() < nq) {
    if (!queries.empty() && rng.NextBounded(4) == 0) {
      // Clone (sometimes with a different k) to provoke sharing.
      PathQuery q = queries[rng.NextBounded(queries.size())];
      if (rng.NextBounded(2) == 0) q.k = 1 + static_cast<int>(rng.NextBounded(5));
      queries.push_back(q);
      continue;
    }
    const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(n));
    if (s == t) continue;
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    queries.push_back({s, t, k});
  }
  *invalid = false;
  if (!queries.empty() && rng.NextBounded(10) == 0) {
    // Poison one query; every engine must reject the whole batch with the
    // same InvalidArgument, at every thread count.
    *invalid = true;
    PathQuery& q = queries[rng.NextBounded(queries.size())];
    switch (rng.NextBounded(4)) {
      case 0: q.t = q.s; break;                       // s == t
      case 1: q.k = 0; break;                         // k below range
      case 2: q.k = kMaxHops + 5; break;              // k above range
      default: q.s = n + 3; break;                    // endpoint off graph
    }
  }
  return queries;
}

BatchOptions RandomOptions(Rng& rng, bool* capped) {
  BatchOptions opt;
  const double gammas[] = {0.1, 0.3, 0.5, 0.8, 1.0};
  opt.gamma = gammas[rng.NextBounded(5)];
  opt.shared_pruning = rng.NextBounded(2) == 0 ? SharedPruning::kPerTarget
                                               : SharedPruning::kGlobalMin;
  const SimilarityMode modes[] = {SimilarityMode::kAuto,
                                  SimilarityMode::kExact,
                                  SimilarityMode::kSketch};
  opt.similarity_mode = modes[rng.NextBounded(3)];
  opt.disable_clustering = rng.NextBounded(8) == 0;
  opt.disable_cache_reuse = rng.NextBounded(8) == 0;
  opt.max_dominating_per_query = rng.NextBounded(4) == 0 ? 0.0 : 8.0;
  const int intra[] = {2, 4, 1 << 20};
  opt.intra_cluster_min_queries = intra[rng.NextBounded(3)];
  *capped = rng.NextBounded(8) == 0;
  if (*capped) opt.max_paths_per_query = 1 + rng.NextBounded(25);
  return opt;
}

void ExpectCountersEqual(const BatchStats& a, const BatchStats& b,
                         const std::string& what) {
  EXPECT_EQ(a.paths_emitted, b.paths_emitted) << what;
  EXPECT_EQ(a.edges_expanded, b.edges_expanded) << what;
  EXPECT_EQ(a.edges_pruned, b.edges_pruned) << what;
  EXPECT_EQ(a.join_probes, b.join_probes) << what;
  EXPECT_EQ(a.join_rejected, b.join_rejected) << what;
  EXPECT_EQ(a.join_index_rebuilds, b.join_index_rebuilds) << what;
  EXPECT_EQ(a.num_clusters, b.num_clusters) << what;
  EXPECT_EQ(a.sharing_nodes, b.sharing_nodes) << what;
  EXPECT_EQ(a.dominating_nodes, b.dominating_nodes) << what;
  EXPECT_EQ(a.shortcut_splices, b.shortcut_splices) << what;
  EXPECT_EQ(a.cached_paths, b.cached_paths) << what;
  EXPECT_EQ(a.cache_peak_vertices, b.cache_peak_vertices) << what;
}

void RunOneConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = RandomGraph(rng, &graph_desc);
  bool invalid = false;
  std::vector<PathQuery> queries = RandomQueries(g, rng, &invalid);
  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);

  std::string desc = graph_desc + " |Q|=" + std::to_string(queries.size()) +
                     (invalid ? " [invalid-query]" : "") +
                     (capped ? " [max_paths=" +
                                   std::to_string(opt.max_paths_per_query) +
                                   "]"
                             : "");
  SCOPED_TRACE(desc);

  // Oracle: brute-force per query (skipped when the batch is poisoned or a
  // cap makes errors legitimate).
  std::vector<std::vector<std::vector<VertexId>>> oracle;
  if (!invalid && !capped) {
    for (const PathQuery& q : queries) {
      auto paths = BruteForcePaths(g, q);
      ASSERT_TRUE(paths.ok()) << paths.status();
      oracle.push_back(paths->ToSortedVectors());
    }
  }

  const struct {
    bool batch;
    bool optimized;
    const char* name;
  } kEngines[] = {{false, false, "basic"},
                  {false, true, "basic+"},
                  {true, false, "batch"},
                  {true, true, "batch+"}};
  for (const auto& engine : kEngines) {
    BatchOptions seq_opt = opt;
    seq_opt.num_threads = 1;
    EngineRun seq =
        RunEngine(g, queries, engine.batch, engine.optimized, seq_opt);

    if (invalid) {
      EXPECT_EQ(seq.status.code(), StatusCode::kInvalidArgument)
          << engine.name;
      EXPECT_TRUE(seq.events.empty()) << engine.name;
    } else if (!capped) {
      ASSERT_TRUE(seq.status.ok()) << engine.name << ": " << seq.status;
      RecordingSink replay;
      for (const auto& e : seq.events) {
        replay.OnPath(e.first, PathView{e.second.data(), e.second.size()});
      }
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(replay.SortedPathsOf(qi), oracle[qi])
            << engine.name << " vs brute force, query " << qi << " "
            << queries[qi].ToString();
      }
    }

    for (int threads : {2, 8}) {
      BatchOptions par_opt = opt;
      par_opt.num_threads = threads;
      EngineRun par =
          RunEngine(g, queries, engine.batch, engine.optimized, par_opt);
      const std::string what =
          std::string(engine.name) + " threads=" + std::to_string(threads);
      // Error semantics are part of the determinism identity: same code,
      // same message, and the same pre-error emission stream.
      EXPECT_EQ(par.status.code(), seq.status.code()) << what;
      EXPECT_EQ(par.status.message(), seq.status.message()) << what;
      EXPECT_EQ(par.events, seq.events) << what;
      // Work counters only merge to the sequential totals on success: a
      // failed sequential run stops mid-subtree while parallel sub-tasks
      // stop at their own boundaries (docs/PARALLELISM.md).
      if (seq.status.ok() && par.status.ok()) {
        ExpectCountersEqual(seq.stats, par.stats, what);
      }
    }
  }
}

int ConfigCount() {
  const char* env = std::getenv("HCPATH_FUZZ_CONFIGS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// Engine-reuse differential: one long-lived PathEngine runs a random
/// stream of micro-batches TWICE — the second pass fully warm (distance
/// cache populated, BatchContext recycled) — and every micro-batch must be
/// byte-identical (stream, Status code and message, work counters) to a
/// fresh one-shot Run{Batch,Basic}Enum call on the same queries. Covers
/// thread counts 1 and 4, invalid-input batches, and max_paths caps.
void RunOneEngineConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = RandomGraph(rng, &graph_desc);
  bool invalid = false;
  std::vector<PathQuery> queries = RandomQueries(g, rng, &invalid);
  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);
  opt.num_threads = rng.NextBounded(2) == 0 ? 1 : 4;
  const bool batch_engine = rng.NextBounded(2) == 0;
  const bool optimized = rng.NextBounded(2) == 0;
  opt.algorithm = batch_engine
                      ? (optimized ? Algorithm::kBatchEnumPlus
                                   : Algorithm::kBatchEnum)
                      : (optimized ? Algorithm::kBasicEnumPlus
                                   : Algorithm::kBasicEnum);

  SCOPED_TRACE(graph_desc + " |Q|=" + std::to_string(queries.size()) +
               " engine=" + AlgorithmName(opt.algorithm) +
               " threads=" + std::to_string(opt.num_threads) +
               (invalid ? " [invalid-query]" : "") +
               (capped ? " [capped]" : ""));

  // Random micro-batch boundaries over the stream (empty batches allowed).
  std::vector<std::vector<PathQuery>> batches;
  for (size_t pos = 0; pos < queries.size();) {
    const size_t take =
        std::min(queries.size() - pos, 1 + rng.NextBounded(5));
    batches.emplace_back(queries.begin() + pos, queries.begin() + pos + take);
    pos += take;
  }
  if (batches.empty()) batches.emplace_back();

  PathEngineOptions engine_opt;
  engine_opt.batch = opt;
  engine_opt.max_wait_seconds = 0;  // RunBatch path only; no timer thread churn
  PathEngine engine(g, engine_opt);
  ASSERT_TRUE(engine.status().ok()) << engine.status();

  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "cold pass" : "warm pass");
    for (size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE("micro-batch " + std::to_string(b));
      RecordingSink engine_sink;
      BatchStats engine_stats;
      Status engine_status =
          engine.RunBatch(batches[b], &engine_sink, &engine_stats);

      EngineRun oneshot =
          RunEngine(g, batches[b], batch_engine, optimized, opt);
      EXPECT_EQ(engine_status.code(), oneshot.status.code());
      EXPECT_EQ(engine_status.message(), oneshot.status.message());
      EXPECT_EQ(engine_sink.events(), oneshot.events);
      if (engine_status.ok() && oneshot.status.ok()) {
        ExpectCountersEqual(engine_stats, oneshot.stats, "engine vs one-shot");
      }
    }
  }
}

TEST(DifferentialFuzz, RandomizedCrossCheck) {
  // Fixed base so the suite is reproducible run to run; per-config seeds
  // are printed on failure and can be replayed alone via HCPATH_FUZZ_SEED.
  constexpr uint64_t kBaseSeed = 0x9E3779B97F4A7C15ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneConfig(seed);
    return;
  }
  const int configs = ConfigCount();
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Join-heavy differential: dense graphs with deep hop budgets and high
/// clone rates, so forward/backward halves are large (hf/hb up to 4/4),
/// midpoint buckets hold many candidates, and the join's stamped
/// disjointness + CSR bucket index dominate the run — the regime the
/// epoch-stamp kernels (docs/PERF.md) were rewritten for. Cross-checks
/// all four engines against BruteForce and seq vs threads {1, 4} for a
/// byte-identical stream and identical counters, max_paths caps included.
void RunOneJoinHeavyConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = [&]() -> Graph {
    switch (rng.NextBounded(3)) {
      case 0: {
        const VertexId n = static_cast<VertexId>(6 + rng.NextBounded(3));
        graph_desc = "complete(n=" + std::to_string(n) + ")";
        return *GenerateComplete(n);
      }
      case 1: {
        const VertexId n = static_cast<VertexId>(14 + rng.NextBounded(16));
        const uint32_t d = static_cast<uint32_t>(4 + rng.NextBounded(3));
        graph_desc = "barabasi_albert(n=" + std::to_string(n) +
                     ", d=" + std::to_string(d) + ")";
        return *GenerateBarabasiAlbert(n, d, rng);
      }
      default: {
        const VertexId n = static_cast<VertexId>(12 + rng.NextBounded(12));
        graph_desc = "small_world(n=" + std::to_string(n) + ", k=4)";
        return *GenerateSmallWorld(n, 4, 0.3, rng);
      }
    }
  }();

  // Deep budgets (k in [5, 8] => hf/hb up to 4/4) and heavy cloning: many
  // queries share endpoints, so shared halves are reused across several
  // joins and path counts per query run high.
  const size_t nq = 3 + rng.NextBounded(8);
  std::vector<PathQuery> queries;
  const VertexId n = g.NumVertices();
  while (queries.size() < nq) {
    if (!queries.empty() && rng.NextBounded(3) == 0) {
      PathQuery q = queries[rng.NextBounded(queries.size())];
      if (rng.NextBounded(2) == 0) {
        q.k = 5 + static_cast<int>(rng.NextBounded(4));
      }
      queries.push_back(q);
      continue;
    }
    const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(n));
    if (s == t) continue;
    queries.push_back({s, t, 5 + static_cast<int>(rng.NextBounded(4))});
  }

  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);
  // Dense graphs at k >= 5 explode; cap always, generously enough that
  // many configs still complete (both outcomes are interesting).
  opt.max_paths_per_query = 500 + rng.NextBounded(4000);

  SCOPED_TRACE(graph_desc + " |Q|=" + std::to_string(queries.size()) +
               " max_paths=" + std::to_string(opt.max_paths_per_query));

  std::vector<std::vector<std::vector<VertexId>>> oracle;
  for (const PathQuery& q : queries) {
    auto paths = BruteForcePaths(g, q);
    ASSERT_TRUE(paths.ok()) << paths.status();
    oracle.push_back(paths->ToSortedVectors());
  }

  const struct {
    bool batch;
    bool optimized;
    const char* name;
  } kEngines[] = {{false, false, "basic"},
                  {false, true, "basic+"},
                  {true, false, "batch"},
                  {true, true, "batch+"}};
  for (const auto& engine : kEngines) {
    BatchOptions seq_opt = opt;
    seq_opt.num_threads = 1;
    EngineRun seq =
        RunEngine(g, queries, engine.batch, engine.optimized, seq_opt);

    if (seq.status.ok()) {
      // The cap didn't trip (it also guards intermediate half-path
      // materialization, so success — not the oracle's path count — is
      // the signal), hence the engine enumerated everything and must
      // match the brute-force oracle.
      RecordingSink replay;
      for (const auto& e : seq.events) {
        replay.OnPath(e.first, PathView{e.second.data(), e.second.size()});
      }
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(replay.SortedPathsOf(qi), oracle[qi])
            << engine.name << " vs brute force, query " << qi;
      }
    }

    for (int threads : {4}) {
      BatchOptions par_opt = opt;
      par_opt.num_threads = threads;
      EngineRun par =
          RunEngine(g, queries, engine.batch, engine.optimized, par_opt);
      const std::string what =
          std::string(engine.name) + " threads=" + std::to_string(threads);
      EXPECT_EQ(par.status.code(), seq.status.code()) << what;
      EXPECT_EQ(par.status.message(), seq.status.message()) << what;
      EXPECT_EQ(par.events, seq.events) << what;
      if (seq.status.ok() && par.status.ok()) {
        ExpectCountersEqual(seq.stats, par.stats, what);
      }
    }
  }
}

TEST(DifferentialFuzz, JoinHeavyCrossCheck) {
  // Separate seed base so the join-heavy sweep explores configurations
  // independent of the other two suites.
  constexpr uint64_t kBaseSeed = 0x6A015EEDB00F00ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneJoinHeavyConfig(seed);
    return;
  }
  // Join-heavy configs enumerate far more paths per query than the random
  // sweep; a quarter of the config budget keeps wall-clock in line.
  const int configs = std::max(1, ConfigCount() / 4);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("join-heavy config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneJoinHeavyConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Multi-tenant admission differential: a random stream is submitted to a
/// weighted-fair-queue engine under randomized tenant weights and queue
/// budgets (both backpressure policies, shedding sometimes immediate) and
/// every query's outcome is checked against a fresh one-shot singleton
/// run: admitted queries must produce the identical sorted path set,
/// count, and OK Status regardless of tenant mix, batch composition, or
/// queue pressure; rejected queries must carry the identical
/// InvalidArgument; every other failure must be one of the two documented
/// admission-control Statuses. Also checks the admission conservation
/// laws: every submit ends in exactly one of
/// {completed, shed, fast-failed, rejected}, globally and per tenant.
void RunOneMultiTenantConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = RandomGraph(rng, &graph_desc);
  bool invalid = false;
  std::vector<PathQuery> queries = RandomQueries(g, rng, &invalid);
  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);
  // No per-query caps here: a capped query legitimately fails its whole
  // micro-batch, whose composition depends on admission timing. Cap error
  // parity is covered by EngineMicroBatchParity's deterministic batches.
  opt.max_paths_per_query = 0;
  opt.num_threads = rng.NextBounded(2) == 0 ? 1 : 4;
  const bool batch_engine = rng.NextBounded(2) == 0;
  const bool optimized = rng.NextBounded(2) == 0;
  opt.algorithm = batch_engine
                      ? (optimized ? Algorithm::kBatchEnumPlus
                                   : Algorithm::kBatchEnum)
                      : (optimized ? Algorithm::kBasicEnumPlus
                                   : Algorithm::kBasicEnum);

  const size_t num_tenants = 1 + rng.NextBounded(4);
  PathEngineOptions engine_opt;
  engine_opt.batch = opt;
  engine_opt.max_wait_seconds = 0;  // deterministic cut modes only
  engine_opt.max_batch_size = 1 + rng.NextBounded(6);
  AdmissionOptions& adm = engine_opt.admission;
  const double weight_choices[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  for (size_t t = 0; t < num_tenants; ++t) {
    adm.tenant_weights["t" + std::to_string(t)] =
        weight_choices[rng.NextBounded(5)];
  }
  const bool fail_fast = rng.NextBounded(2) == 0;
  if (fail_fast) {
    adm.backpressure = AdmissionBackpressure::kFailFast;
    adm.max_queued_queries = 2 + rng.NextBounded(8);
    if (rng.NextBounded(3) == 0) {
      // Tight byte budget too (~a few queued entries' worth).
      adm.max_queued_bytes = 200 + rng.NextBounded(2000);
    }
    adm.shed_low_watermark = 0.5;
    // Half the configs shed the moment the queue fills; the rest never.
    adm.shed_patience_seconds = rng.NextBounded(2) == 0 ? 0.0 : 1e6;
  } else {
    // Blocking submits make progress because the dispatcher's size cut
    // fires at max_batch_size <= the entry budget.
    adm.backpressure = AdmissionBackpressure::kBlock;
    adm.max_queued_queries = std::max<size_t>(
        engine_opt.max_batch_size,
        static_cast<size_t>(2 + rng.NextBounded(8)));
    adm.shed_patience_seconds = 1e6;
  }

  SCOPED_TRACE(graph_desc + " |Q|=" + std::to_string(queries.size()) +
               " engine=" + AlgorithmName(opt.algorithm) +
               " threads=" + std::to_string(opt.num_threads) +
               " tenants=" + std::to_string(num_tenants) +
               " window=" + std::to_string(engine_opt.max_batch_size) +
               " budget=" + std::to_string(adm.max_queued_queries) +
               (fail_fast ? " [fail-fast]" : " [block]") +
               (adm.shed_patience_seconds == 0 ? " [shed]" : "") +
               (invalid ? " [invalid-query]" : ""));

  PathEngine engine(g, engine_opt);
  ASSERT_TRUE(engine.status().ok()) << engine.status();

  struct Sub {
    PathQuery query;
    std::string tenant;
    std::future<QueryResult> future;
  };
  std::vector<Sub> subs;
  subs.reserve(queries.size());
  for (const PathQuery& q : queries) {
    Sub s;
    s.query = q;
    s.tenant = "t" + std::to_string(rng.NextBounded(num_tenants));
    subs.push_back(std::move(s));
  }
  for (Sub& s : subs) s.future = engine.Submit(s.tenant, s.query);
  engine.Flush();
  engine.Drain();

  for (Sub& s : subs) {
    SCOPED_TRACE("tenant " + s.tenant + " query " + s.query.ToString());
    QueryResult r = s.future.get();
    if (r.status.ok()) {
      // Admitted: byte-identical to an unloaded one-shot singleton run.
      EngineRun ref = RunEngine(g, {s.query}, batch_engine, optimized, opt);
      ASSERT_TRUE(ref.status.ok()) << ref.status;
      std::vector<std::vector<VertexId>> ref_paths;
      ref_paths.reserve(ref.events.size());
      for (const auto& e : ref.events) ref_paths.push_back(e.second);
      std::sort(ref_paths.begin(), ref_paths.end());
      EXPECT_EQ(r.path_count, ref_paths.size());
      EXPECT_EQ(r.paths.ToSortedVectors(), ref_paths);
    } else if (r.status.code() == StatusCode::kInvalidArgument) {
      // Rejected at admission: identical error to the one-shot call.
      EngineRun ref = RunEngine(g, {s.query}, batch_engine, optimized, opt);
      EXPECT_EQ(ref.status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(r.status.message(), ref.status.message());
    } else {
      // Overload outcomes are limited to the documented vocabulary.
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status;
      const bool shed = r.status.message().rfind(
                            "query shed by admission control", 0) == 0;
      const bool full =
          r.status.message().rfind("admission queue full", 0) == 0;
      EXPECT_TRUE(shed || full) << r.status;
    }
  }

  // Conservation: every submit landed in exactly one outcome bucket.
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_completed + stats.queries_shed +
                stats.submits_fast_failed + stats.queries_rejected,
            subs.size());
  uint64_t tenant_submitted = 0;
  for (const auto& [tenant, ts] : stats.tenants) {
    SCOPED_TRACE("tenant " + tenant);
    EXPECT_EQ(ts.submitted, ts.admitted + ts.rejected + ts.fast_failed);
    EXPECT_EQ(ts.admitted, ts.completed + ts.shed);  // queue is drained
    tenant_submitted += ts.submitted;
  }
  EXPECT_EQ(tenant_submitted, subs.size());
  EXPECT_LE(stats.peak_queued_queries, adm.max_queued_queries);
}

TEST(DifferentialFuzz, EngineMultiTenantParity) {
  // Separate seed base so the multi-tenant sweep explores configurations
  // independent of the other suites.
  constexpr uint64_t kBaseSeed = 0xFA1209AC5EDB00ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneMultiTenantConfig(seed);
    return;
  }
  // Each config also runs up to |Q| one-shot singleton references; a
  // quarter of the budget keeps wall-clock in line.
  const int configs = std::max(1, ConfigCount() / 4);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("multi-tenant config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneMultiTenantConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Entry-point parity differential: the BatchPathEnumerator facade and a
/// long-lived PathEngine both dispatch through RunPipeline, so on every
/// configuration they must agree exactly — same Status code and message
/// (invalid-query batches reject before anything is emitted, for every
/// algorithm), same emission stream, same per-query counts, and identical
/// work counters. Each configuration sweeps all five algorithms, all three
/// probe kernels and threads {1, 4}, runs its drawn batch plus a poisoned
/// copy of it, and is capped (max_paths_per_query) about a third of the
/// time.
struct EntryPointRun {
  Status status;
  std::vector<RecordingSink::Event> events;
  std::vector<uint64_t> path_counts;
  BatchStats stats;
};

EntryPointRun RunFacade(BatchPathEnumerator& enumerator,
                        const std::vector<PathQuery>& queries,
                        const BatchOptions& options) {
  EntryPointRun run;
  RecordingSink sink;
  auto result = enumerator.Run(queries, options, &sink);
  run.status = result.status();
  if (result.ok()) {
    run.path_counts = result->path_counts;
    run.stats = result->stats;
  }
  run.events = sink.events();
  return run;
}

EntryPointRun RunEngineBatch(PathEngine& engine,
                             const std::vector<PathQuery>& queries) {
  EntryPointRun run;
  RecordingSink sink;
  run.status = engine.RunBatch(queries, &sink, &run.stats);
  if (run.status.ok()) {
    run.path_counts.assign(queries.size(), 0);
    for (const RecordingSink::Event& e : sink.events()) {
      ++run.path_counts[e.first];
    }
  }
  run.events = sink.events();
  return run;
}

void RunOneEntryPointConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = RandomGraph(rng, &graph_desc);
  bool invalid = false;
  std::vector<PathQuery> queries = RandomQueries(g, rng, &invalid);
  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);
  if (!capped && rng.NextBounded(4) == 0) {
    capped = true;
    opt.max_paths_per_query = 1 + rng.NextBounded(25);
  }
  std::vector<std::vector<PathQuery>> batches = {queries};
  if (!queries.empty() && !invalid) {
    // A poisoned copy: a healthy query ahead of the bad one must not emit.
    std::vector<PathQuery> poisoned = queries;
    poisoned[rng.NextBounded(poisoned.size())].k = 0;
    batches.push_back(std::move(poisoned));
  }

  SCOPED_TRACE(graph_desc + " |Q|=" + std::to_string(queries.size()) +
               (invalid ? " [invalid-query]" : "") +
               (capped ? " [capped]" : ""));

  for (Algorithm algo :
       {Algorithm::kPathEnum, Algorithm::kBasicEnum, Algorithm::kBasicEnumPlus,
        Algorithm::kBatchEnum, Algorithm::kBatchEnumPlus}) {
    for (KernelMode kernel :
         {KernelMode::kAuto, KernelMode::kStamped, KernelMode::kNaive}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string("algo=") + AlgorithmName(algo) +
                     " kernel=" + KernelModeName(kernel) +
                     " threads=" + std::to_string(threads));
        opt.algorithm = algo;
        opt.kernel_mode = kernel;
        opt.num_threads = threads;
        BatchPathEnumerator enumerator(g);
        PathEngineOptions engine_opt;
        engine_opt.batch = opt;
        engine_opt.manual_dispatch = true;
        PathEngine engine(g, engine_opt);
        ASSERT_TRUE(engine.status().ok()) << engine.status();
        for (size_t b = 0; b < batches.size(); ++b) {
          SCOPED_TRACE(b == 0 ? "drawn batch" : "poisoned batch");
          const EntryPointRun facade = RunFacade(enumerator, batches[b], opt);
          const EntryPointRun served = RunEngineBatch(engine, batches[b]);
          EXPECT_EQ(served.status.code(), facade.status.code());
          EXPECT_EQ(served.status.message(), facade.status.message());
          EXPECT_EQ(served.events, facade.events)
              << "emission streams diverge";
          EXPECT_EQ(served.path_counts, facade.path_counts);
          if (b > 0) {
            EXPECT_EQ(facade.status.code(), StatusCode::kInvalidArgument);
            EXPECT_TRUE(facade.events.empty())
                << "a rejected batch must emit nothing";
          }
          if (facade.status.ok() && served.status.ok()) {
            ExpectCountersEqual(served.stats, facade.stats, "entry points");
          }
        }
      }
    }
  }
}

TEST(DifferentialFuzz, EntryPointParity) {
  // Separate seed base so the entry-point sweep explores configurations
  // independent of the other suites.
  constexpr uint64_t kBaseSeed = 0x8A5CF7D21E0B43ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneEntryPointConfig(seed);
    return;
  }
  // Each config runs 30 (algorithm, kernel, threads) sweeps through both
  // entry points; a quarter of the config budget keeps wall-clock in line.
  const int configs = std::max(1, ConfigCount() / 4);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("entry-point config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneEntryPointConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Update-interleaved differential (docs/DYNAMIC.md): a store-backed
/// engine serves random micro-batches interleaved with randomized
/// Add/Remove update batches. Each phase randomly updates BEFORE or AFTER
/// flushing the queued queries, so queries regularly run on snapshots that
/// are no longer current. Checks, per seeded config and at threads
/// {1, 4}:
///   * every query's sorted path set equals the brute-force oracle on
///     exactly the snapshot stamped into its result (admitted-snapshot
///     parity: updates landing while a query is queued or running never
///     leak into it),
///   * each ApplyUpdates result is structurally identical to a
///     from-scratch Build over a shadow edge set replaying the same batch
///     (CSR merge vs rebuild equivalence),
///   * the endpoint cache never serves a stale map (implied by parity, at
///     full cache warmth across phases),
///   * the delta-overlay compaction policy is invisible: the identical
///     phase stream replayed at thresholds 0 (always rebuild), 0.5
///     (extend, then fold mid-stream), and never-compact produces
///     byte-identical per-query results.
void RunOneUpdateInterleavedConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  const Graph seed_graph = RandomGraph(rng, &graph_desc);
  bool capped = false;
  BatchOptions opt = RandomOptions(rng, &capped);
  opt.max_paths_per_query = 0;  // caps fail whole micro-batches; not here
  const Algorithm algos[] = {Algorithm::kPathEnum, Algorithm::kBasicEnum,
                             Algorithm::kBasicEnumPlus, Algorithm::kBatchEnum,
                             Algorithm::kBatchEnumPlus};
  opt.algorithm = algos[rng.NextBounded(5)];
  const size_t num_phases = 2 + rng.NextBounded(4);

  // (epoch, count, sorted paths) per query, in submission order — the
  // cross-threshold byte-identity fingerprint.
  using Fingerprint =
      std::vector<std::tuple<uint64_t, uint64_t,
                             std::vector<std::vector<VertexId>>>>;

  for (int threads : {1, 4}) {
    opt.num_threads = threads;
    Fingerprint baseline;
    for (const double threshold : {0.0, 0.5, 1e9}) {
    SCOPED_TRACE(graph_desc + " algo=" + AlgorithmName(opt.algorithm) +
                 " phases=" + std::to_string(num_phases) +
                 " threads=" + std::to_string(threads) +
                 " compaction_threshold=" + std::to_string(threshold));

    GraphStore store(seed_graph,
                     GraphStoreOptions{.compaction_threshold = threshold});
    PathEngineOptions engine_opt;
    engine_opt.batch = opt;
    engine_opt.max_wait_seconds = 0;  // cuts on Flush only: queries queue
    engine_opt.max_batch_size = 1024;
    PathEngine engine(&store, engine_opt);
    ASSERT_TRUE(engine.status().ok()) << engine.status();

    // Shadow state: the edge set the store must be equivalent to, and a
    // from-scratch graph per epoch for the parity oracle.
    std::vector<std::pair<VertexId, VertexId>> shadow = seed_graph.Edges();
    VertexId shadow_n = seed_graph.NumVertices();
    std::map<uint64_t, Graph> at_epoch;
    at_epoch.emplace(0, seed_graph);

    std::vector<std::pair<PathQuery, std::future<QueryResult>>> pending;
    // Deterministic per-thread-count replay: reseed the phase stream so
    // both thread counts see identical phases.
    Rng phase_rng(seed ^ 0xABCDEF12345ull);
    for (size_t phase = 0; phase < num_phases; ++phase) {
      // Queries against the current shadow graph's id space.
      const Graph& current = at_epoch.rbegin()->second;
      const size_t nq = phase_rng.NextBounded(6);
      for (size_t i = 0; i < nq; ++i) {
        const VertexId n = current.NumVertices();
        const VertexId s = static_cast<VertexId>(phase_rng.NextBounded(n));
        const VertexId t = static_cast<VertexId>(phase_rng.NextBounded(n));
        if (s == t) continue;
        const PathQuery q{s, t, 1 + static_cast<int>(phase_rng.NextBounded(5))};
        pending.emplace_back(q, engine.Submit(q));
      }

      // Half the phases flush before updating (queries run on the epoch
      // they pinned, trivially current); half update first, so queued
      // queries run on a superseded snapshot and would expose any
      // pin/invalidation bug.
      const bool update_first = phase_rng.NextBounded(2) == 0;
      if (!update_first) {
        engine.Flush();
        engine.Drain();
      }

      // Random update batch, sometimes growing the id space.
      std::vector<EdgeUpdate> batch;
      const size_t nu = 1 + phase_rng.NextBounded(8);
      for (size_t i = 0; i < nu; ++i) {
        const VertexId u =
            static_cast<VertexId>(phase_rng.NextBounded(shadow_n + 2));
        const VertexId v =
            static_cast<VertexId>(phase_rng.NextBounded(shadow_n + 2));
        batch.push_back(phase_rng.NextBounded(2) == 0
                            ? EdgeUpdate::Add(u, v)
                            : EdgeUpdate::Remove(u, v));
      }
      auto applied = engine.ApplyUpdates(batch);
      ASSERT_TRUE(applied.status().ok()) << applied.status();

      // Replay onto the shadow edge set, modeling the documented
      // semantics: collapse to the LAST op per (u, v) first, then apply —
      // an add netted out by a later remove must not grow the id space.
      std::map<std::pair<VertexId, VertexId>, EdgeUpdate::Op> last;
      for (const EdgeUpdate& u : batch) last[{u.u, u.v}] = u.op;
      for (const auto& [e, op] : last) {
        shadow.erase(std::remove(shadow.begin(), shadow.end(), e),
                     shadow.end());
        if (op == EdgeUpdate::Op::kAddEdge && e.first != e.second) {
          shadow.push_back(e);
          shadow_n = std::max(shadow_n, static_cast<VertexId>(
                                            std::max(e.first, e.second) + 1));
        }
      }
      const Graph& updated = applied->snapshot->graph;
      GraphBuilder rebuild(shadow_n);
      for (const auto& e : shadow) rebuild.AddEdge(e.first, e.second);
      const Graph rebuilt = *rebuild.Build();
      ASSERT_EQ(updated.NumVertices(), rebuilt.NumVertices())
          << "phase " << phase;
      ASSERT_EQ(updated.Edges(), rebuilt.Edges())
          << "ApplyUpdates CSR diverges from from-scratch Build, phase "
          << phase;
      at_epoch.emplace(applied->snapshot->epoch, updated);

      if (update_first) {
        engine.Flush();
        engine.Drain();
      }
    }
    engine.Flush();
    engine.Drain();

    Fingerprint fp;
    for (auto& [q, f] : pending) {
      QueryResult r = f.get();
      SCOPED_TRACE("query " + q.ToString() + " epoch " +
                   std::to_string(r.graph_epoch));
      ASSERT_TRUE(r.status.ok()) << r.status;
      auto it = at_epoch.find(r.graph_epoch);
      ASSERT_NE(it, at_epoch.end());
      auto oracle = BruteForcePaths(it->second, q);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      EXPECT_EQ(r.path_count, oracle->size());
      EXPECT_EQ(r.paths.ToSortedVectors(), oracle->ToSortedVectors());
      fp.emplace_back(r.graph_epoch, r.path_count, r.paths.ToSortedVectors());
    }
    pending.clear();

    // The overlay seam must be invisible: whatever the compaction policy
    // did (never extend / fold mid-stream / chain forever), every query's
    // (epoch, count, paths) matches the always-rebuild baseline exactly.
    if (threshold == 0.0) {
      baseline = std::move(fp);
    } else {
      ASSERT_EQ(fp, baseline)
          << "results diverge across compaction thresholds";
    }
    }  // threshold sweep
  }
}

TEST(DifferentialFuzz, UpdateInterleavedParity) {
  // Separate seed base so the dynamic-graph sweep explores configurations
  // independent of the other suites.
  constexpr uint64_t kBaseSeed = 0xDECADE0FCAB1E5ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneUpdateInterleavedConfig(seed);
    return;
  }
  // Each config replays its phase stream at two thread counts; half the
  // budget (>= 100 configs at the default 200) keeps wall-clock in line.
  const int configs = std::max(1, ConfigCount() / 2);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("update-interleaved config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneUpdateInterleavedConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialFuzz, EngineMicroBatchParity) {
  // Separate seed base from RandomizedCrossCheck so the two suites explore
  // independent configurations. HCPATH_FUZZ_SEED replays a single printed
  // seed through this suite's config runner.
  constexpr uint64_t kBaseSeed = 0xD1B54A32D192ED03ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneEngineConfig(seed);
    return;
  }
  // Engine configs run the batch list twice (cold + warm), so half the
  // count keeps the suite's wall-clock in line with RandomizedCrossCheck.
  const int configs = std::max(1, ConfigCount() / 2);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("engine config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneEngineConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void CheckShardedConservation(const ShardedServiceStats& s,
                              const std::string& what) {
  EXPECT_EQ(s.queries_submitted,
            s.queries_completed + s.queries_failed + s.queries_rejected)
      << what;
  EXPECT_EQ(s.dispatches, s.attempts_completed + s.attempts_failed +
                              s.attempts_cancelled + s.attempts_dropped +
                              s.attempts_in_flight)
      << what;
  EXPECT_EQ(s.attempts_in_flight, 0u) << what;
  EXPECT_EQ(s.queries_stalled, 0u) << what;
}

/// Sharded fault-parity differential (docs/SHARDING.md): the same random
/// query batch runs through a 1-shard no-fault ShardedPathService (the
/// oracle) and through sharded services (1, 2, 4 shards; 1 and 4 batch
/// threads) under a random fault schedule (crash, hang, drop-reply, slow,
/// fail-N) with retries and sometimes hedging enabled. For every query
/// that completes, the materialized path set must equal the oracle's; a
/// query the supervisor gives up on must carry the canonical retryable
/// shard-unavailable status; and both conservation laws must close with
/// zero stalled queries — faults may fail queries, never corrupt or
/// strand them.
void RunOneShardedConfig(uint64_t seed) {
  Rng rng(seed);
  std::string graph_desc;
  Graph g = RandomGraph(rng, &graph_desc);
  bool invalid = false;
  std::vector<PathQuery> queries = RandomQueries(g, rng, &invalid);
  bool capped = false;
  const BatchOptions batch = RandomOptions(rng, &capped);

  ShardedServiceOptions base;
  base.batch = batch;
  base.batch.num_threads = 1;
  base.service_time_seconds = 0.015625;      // 1/64
  base.heartbeat_interval_seconds = 0.0625;  // 1/16
  base.suspect_after_missed = 2;
  base.down_after_missed = 4;
  base.restart_delay_seconds = 0.125;
  base.restart_duration_seconds = 0.25;
  base.retry_backoff_seconds = 0.0625;
  // Attempt timeouts stay on: they are the only detection path for
  // drop-reply faults, and queries_stalled == 0 is asserted below.
  base.attempt_timeout_seconds = 0.5;
  base.seed = seed;

  // Oracle: one shard, no faults, sinkless so paths materialize.
  VirtualClock ref_clock;
  ShardedPathService reference(&g, base, &ref_clock);
  ASSERT_TRUE(reference.init_status().ok());
  auto ref_futures = reference.SubmitBatch("t", queries, nullptr);
  reference.RunToCompletion(&ref_clock);
  std::vector<QueryResult> oracle;
  oracle.reserve(ref_futures.size());
  for (auto& f : ref_futures) oracle.push_back(f.get());
  CheckShardedConservation(reference.GetStats(), "oracle");

  for (int shards : {1, 2, 4}) {
    ShardedServiceOptions opt = base;
    opt.num_shards = shards;
    opt.batch.num_threads = rng.NextBounded(2) == 0 ? 1 : 4;
    opt.routing = rng.NextBounded(2) == 0 ? RoutingPolicy::kHash
                                          : RoutingPolicy::kRoundRobin;
    opt.max_retries = 1 + static_cast<int>(rng.NextBounded(3));
    opt.retry_jitter_fraction = 0.25;  // jitter must not affect results
    opt.enable_hedging = rng.NextBounded(2) == 0;
    opt.hedge_after_seconds = 0.03125;
    opt.hedge_min_samples = 4;

    // Random fault schedule over the real shard count.
    FaultInjector injector;
    const size_t num_rules = rng.NextBounded(4);  // 0..3, inert included
    std::string schedule;
    for (size_t r = 0; r < num_rules; ++r) {
      FaultRule rule;
      rule.shard = static_cast<int>(rng.NextBounded(shards));
      rule.at_dispatch = rng.NextBounded(8);
      rule.count = 1 + rng.NextBounded(3);
      rule.kind = static_cast<FaultKind>(rng.NextBounded(5));
      rule.seconds = 0.0625 * static_cast<double>(1 + rng.NextBounded(4));
      rule.factor = static_cast<double>(2 + rng.NextBounded(7));
      injector.AddRule(rule);
      schedule += std::string(FaultKindName(rule.kind)) + "@" +
                  std::to_string(rule.shard) + " ";
    }
    SCOPED_TRACE("shards=" + std::to_string(shards) +
                 " threads=" + std::to_string(opt.batch.num_threads) +
                 " hedging=" + std::to_string(opt.enable_hedging) +
                 " faults=[" + schedule + "] graph=" + graph_desc);

    VirtualClock vc;
    ShardedPathService svc(&g, opt, &vc, &injector);
    ASSERT_TRUE(svc.init_status().ok());
    auto futures = svc.SubmitBatch("t", queries, nullptr);
    svc.RunToCompletion(&vc);
    ASSERT_EQ(futures.size(), oracle.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      QueryResult r = futures[i].get();
      if (r.status.ok()) {
        // A completed query is byte-equivalent to the oracle, whatever
        // faults its attempts absorbed along the way.
        ASSERT_TRUE(oracle[i].status.ok()) << r.status;
        EXPECT_EQ(r.path_count, oracle[i].path_count);
        EXPECT_EQ(r.paths.ToSortedVectors(), oracle[i].paths.ToSortedVectors());
      } else if (!oracle[i].status.ok()) {
        // Deterministic pipeline/validation errors (invalid query,
        // max_paths cap) reproduce exactly — code and message.
        EXPECT_EQ(r.status.code(), oracle[i].status.code());
        EXPECT_EQ(r.status.message(), oracle[i].status.message());
      } else {
        // Fault-induced degradation: canonical, retryable, attributable.
        EXPECT_TRUE(IsShardUnavailable(r.status)) << r.status.ToString();
        EXPECT_TRUE(r.status.retryable());
      }
    }
    CheckShardedConservation(svc.GetStats(), "faulted");
  }
}

TEST(DifferentialFuzz, ShardedFaultParity) {
  // Separate seed base so this suite explores configurations independent
  // of the other differential suites.
  constexpr uint64_t kBaseSeed = 0x9E6C63D0876A9A47ull;
  if (const char* one = std::getenv("HCPATH_FUZZ_SEED")) {
    const uint64_t seed = std::strtoull(one, nullptr, 0);
    SCOPED_TRACE("HCPATH_FUZZ_SEED=" + std::to_string(seed));
    RunOneShardedConfig(seed);
    return;
  }
  // Each config runs a full virtual-time simulation at three shard
  // counts; a quarter of the count keeps wall-clock in line with the
  // other suites.
  const int configs = std::max(1, ConfigCount() / 4);
  for (int c = 0; c < configs; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    SCOPED_TRACE("sharded config #" + std::to_string(c) +
                 " — reproduce with HCPATH_FUZZ_SEED=" +
                 std::to_string(seed));
    RunOneShardedConfig(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hcpath

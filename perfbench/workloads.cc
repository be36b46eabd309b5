#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/basic_enum.h"
#include "core/clustering.h"
#include "core/enumerator.h"
#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "index/distance_index.h"
#include "oracle.h"
#include "service/clock.h"
#include "service/path_engine.h"
#include "service/sharded_service.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"
#include "workload/similarity_gen.h"

namespace perfbench {

namespace {

using hcpath::BatchOptions;
using hcpath::BatchStats;
using hcpath::EdgeUpdate;
using hcpath::Graph;
using hcpath::PathQuery;
using SteadyClock = std::chrono::steady_clock;

/// Every seed relabels one fixed instance (see README.md, "Inputs").
constexpr uint64_t kInstanceSeed = 20240513;
/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
/// Minimum untraced rounds per run, so per-step medians have a majority
/// (the traced run needs two of each kind).
constexpr size_t kMinRounds = 3;
constexpr size_t kMinTracedRunRounds = 2;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size()))), 1,
      v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename T>
T MustOk(hcpath::StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             v.status().ToString());
  }
  return std::move(*v);
}

/// Durations of each step of a round (a batch, window, update or call),
/// one list per step index across rounds.
class StepLog {
 public:
  void Add(size_t step, double seconds) {
    if (step >= steps_.size()) steps_.resize(step + 1);
    steps_[step].push_back(seconds);
  }
  /// Plain wall time of each round, for the run summary.
  std::vector<double> RoundSeconds() const {
    std::vector<double> rounds;
    for (const auto& s : steps_) {
      if (rounds.size() < s.size()) rounds.resize(s.size(), 0);
      for (size_t r = 0; r < s.size(); ++r) rounds[r] += s[r];
    }
    return rounds;
  }
  /// One round's wall time with every step at its median over the run's
  /// rounds: a burst of contention on the machine moves one sample of a
  /// step, not the figure.
  double RobustRoundSeconds() const {
    double total = 0;
    for (const auto& s : steps_) total += Median(s);
    return total;
  }

 private:
  std::vector<std::vector<double>> steps_;
};

// ------------------------------------------------------------------ inputs

/// The graph a run works on: the EP stand-in generated from kInstanceSeed,
/// with its vertex ids rotated by a seed-drawn offset. Every seed thus asks
/// the same work of the program (the stand-in's id locality included) on
/// different vertex ids.
struct Instance {
  Graph graph;
  Vertex num_vertices = 0;
  Vertex offset = 0;        ///< run id = (base id + offset) mod |V|
  std::vector<Edge> edges;  ///< the benchmark's own edge list, run ids

  Vertex ToRun(Vertex v) const {
    return static_cast<Vertex>((uint64_t{v} + offset) % num_vertices);
  }
  PathQuery ToRun(const PathQuery& q) const {
    return {ToRun(q.s), ToRun(q.t), q.k};
  }
};

Instance Relabel(const Graph& base, uint64_t seed) {
  Instance inst;
  hcpath::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51ED);
  inst.num_vertices = base.NumVertices();
  inst.offset = static_cast<Vertex>(rng.NextBounded(inst.num_vertices));
  inst.edges = base.Edges();
  hcpath::GraphBuilder builder(inst.num_vertices);
  builder.Reserve(inst.edges.size());
  for (Edge& e : inst.edges) {
    e = {inst.ToRun(e.first), inst.ToRun(e.second)};
    builder.AddEdge(e.first, e.second);
  }
  inst.graph = MustOk(builder.Build(), "relabelled graph");
  return inst;
}

std::string Describe(const Instance& inst) {
  return "EP stand-in |V| " + std::to_string(inst.graph.NumVertices()) +
         ", |E| " + std::to_string(inst.graph.NumEdges());
}

Graph BaseGraph(bool quick) {
  return MustOk(hcpath::MakeDataset("EP", quick ? 0.2 : 1.0, kInstanceSeed),
                "EP stand-in");
}

OracleQuery ToOracle(const PathQuery& q) { return {q.s, q.t, q.k}; }

/// Zipf(alpha) over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double alpha) : cdf_(n) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(hcpath::Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

constexpr size_t kWindow = 64;
constexpr int kTenants = 4;
constexpr double kZipfAlpha = 1.1;
const char* const kTenantNames[kTenants] = {"t0", "t1", "t2", "t3"};

/// Inputs of the serving workloads: a template pool, a fixed stream of
/// 64-query windows drawn Zipf(1.1) from it, and (serve-mixed) one fixed
/// update batch plus its inverse.
struct ServeInputs {
  Instance inst;
  std::vector<PathQuery> pool;                 ///< run ids
  std::vector<std::vector<uint32_t>> windows;  ///< template indices
  std::vector<EdgeUpdate> update, inverse;     ///< run ids
  std::vector<Edge> edges_after_update;        ///< run ids

  /// Distinct templates in the stream and their distinct (endpoint,
  /// direction, k) keys, against the endpoint cache's entry budget.
  std::string Describe() const {
    std::set<uint32_t> templates;
    std::set<std::tuple<Vertex, int, int>> keys;
    for (const auto& w : windows) {
      for (uint32_t t : w) {
        templates.insert(t);
        keys.insert({pool[t].s, 0, pool[t].k});
        keys.insert({pool[t].t, 1, pool[t].k});
      }
    }
    return perfbench::Describe(inst) + "; pool " + std::to_string(pool.size()) +
           " templates, stream " + std::to_string(windows.size()) + " x " +
           std::to_string(kWindow) + " queries holding " +
           std::to_string(templates.size()) + " templates and " +
           std::to_string(keys.size()) + " endpoint keys";
  }
};

ServeInputs MakeServeInputs(uint64_t seed, bool quick) {
  const Graph base = BaseGraph(quick);
  hcpath::Rng rng(kInstanceSeed + 3);
  hcpath::QueryGenOptions qopt;
  qopt.k_min = 4;
  qopt.k_max = 5;
  std::vector<PathQuery> base_pool = MustOk(
      hcpath::GenerateRandomQueries(base, quick ? 1000 : 6000, qopt, rng),
      "template pool");
  ServeInputs in;
  const Zipf zipf(base_pool.size(), kZipfAlpha);
  in.windows.resize(quick ? 16 : 256);
  for (auto& w : in.windows) {
    w.resize(kWindow);
    for (auto& t : w) t = static_cast<uint32_t>(zipf.Sample(rng));
  }

  // 16 removals of present edges and 16 additions of absent ones; half of
  // each leave the source of one of the 8 hottest templates.
  std::set<Edge> removed, added;
  auto add_removal = [&](Vertex u) {
    auto out = base.OutNeighbors(u);
    if (out.empty()) return false;
    return removed.insert({u, out[rng.NextBounded(out.size())]}).second;
  };
  auto add_addition = [&](Vertex u) {
    const Vertex w = static_cast<Vertex>(rng.NextBounded(base.NumVertices()));
    if (w == u || base.HasEdge(u, w)) return false;
    return added.insert({u, w}).second;
  };
  const Vertex n = base.NumVertices();
  for (size_t j = 0; removed.size() < 8 || added.size() < 8; ++j) {
    const Vertex hot = base_pool[j % 8].s;
    if (removed.size() < 8) add_removal(hot);
    if (added.size() < 8) add_addition(hot);
  }
  while (removed.size() < 16) add_removal(static_cast<Vertex>(rng.NextBounded(n)));
  while (added.size() < 16) add_addition(static_cast<Vertex>(rng.NextBounded(n)));

  in.inst = Relabel(base, seed);
  for (const PathQuery& q : base_pool) in.pool.push_back(in.inst.ToRun(q));
  std::set<Edge> removed_run;
  for (const Edge& e : removed) {
    const Edge r{in.inst.ToRun(e.first), in.inst.ToRun(e.second)};
    in.update.push_back(EdgeUpdate::Remove(r.first, r.second));
    in.inverse.push_back(EdgeUpdate::Add(r.first, r.second));
    removed_run.insert(r);
  }
  in.edges_after_update = in.inst.edges;
  std::erase_if(in.edges_after_update,
                [&](const Edge& e) { return removed_run.count(e) != 0; });
  for (const Edge& e : added) {
    const Edge r{in.inst.ToRun(e.first), in.inst.ToRun(e.second)};
    in.update.push_back(EdgeUpdate::Add(r.first, r.second));
    in.inverse.push_back(EdgeUpdate::Remove(r.first, r.second));
    in.edges_after_update.push_back(r);
  }
  return in;
}

// ------------------------------------------------------------------- sinks

/// Reads every vertex of every path it is handed, keeping a per-query
/// count and path-set hash, like the fraud and pathway examples' consumers
/// do. With sampling on, it also copies the first kSample paths it sees, so
/// that EstimateSeconds can time its own work on them afterwards: timing
/// each ~50 ns call inline would mostly measure the clock.
class DigestSink : public hcpath::PathSink {
 public:
  static constexpr size_t kSample = 1 << 16;

  void Reset(size_t num_queries, bool sample) {
    counts_.assign(num_queries, 0);
    hashes_.assign(num_queries, 0);
    sampling_ = sample;
    sample_.Clear();
  }
  void OnPath(size_t query, hcpath::PathView path) override {
    if (sampling_ && sample_.size() < kSample) sample_.Add(path);
    ++counts_[query];
    hashes_[query] += PathHash(path);
  }
  const std::vector<uint64_t>& counts() const { return counts_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }
  uint64_t Total() const {
    return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
  }

  /// Time this sink spent on the paths since Reset: its per-path work
  /// replayed over the sample, scaled to every path seen.
  double EstimateSeconds() const {
    if (sample_.empty()) return 0;
    std::vector<uint64_t> counts(counts_.size(), 0);
    const auto t0 = SteadyClock::now();
    for (size_t i = 0; i < sample_.size(); ++i) {
      ++counts[i % counts.size()];
      replay_hash_ += PathHash(sample_[i]);
    }
    const double seconds = Since(t0);
    return seconds * static_cast<double>(Total()) /
           static_cast<double>(sample_.size());
  }

 private:
  std::vector<uint64_t> counts_, hashes_;
  bool sampling_ = false;
  hcpath::PathSet sample_;
  mutable uint64_t replay_hash_ = 0;  ///< keeps the replay observable
};

/// Verification-pass sink: digests every path like DigestSink and checks
/// the path properties of the chosen queries inline.
class CheckingSink : public hcpath::PathSink {
 public:
  CheckingSink(const OracleGraph& g, const std::vector<PathQuery>& queries,
               const std::vector<bool>& check)
      : g_(g), queries_(queries), check_(check),
        counts_(queries.size(), 0), hashes_(queries.size(), 0),
        path_hashes_(queries.size()) {}

  void OnPath(size_t query, hcpath::PathView path) override {
    const uint64_t h = PathHash(path);
    ++counts_[query];
    hashes_[query] += h;
    if (!check_[query]) return;
    if (fault_.empty()) fault_ = CheckPath(g_, ToOracle(queries_[query]), path);
    path_hashes_[query].push_back(h);
  }

  /// First fault found, after the duplicate check of every checked query.
  std::string Finish() {
    for (size_t i = 0; i < queries_.size() && fault_.empty(); ++i) {
      if (check_[i]) {
        fault_ = CheckNoDuplicates(ToOracle(queries_[i]), &path_hashes_[i]);
      }
    }
    return fault_;
  }
  const std::vector<uint64_t>& counts() const { return counts_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

 private:
  const OracleGraph& g_;
  const std::vector<PathQuery>& queries_;
  const std::vector<bool>& check_;
  std::vector<uint64_t> counts_, hashes_;
  std::vector<std::vector<uint64_t>> path_hashes_;
  std::string fault_;
};

uint64_t PathSetHash(const hcpath::PathSet& paths) {
  uint64_t h = 0;
  for (size_t i = 0; i < paths.size(); ++i) h += PathHash(paths[i]);
  return h;
}

// ------------------------------------------------------- per-layer figures

/// Counter totals of the pipeline between two cumulative BatchStats.
BatchStats Delta(const BatchStats& before, const BatchStats& after) {
  BatchStats d;
  d.build_index_seconds = after.build_index_seconds - before.build_index_seconds;
  d.cluster_seconds = after.cluster_seconds - before.cluster_seconds;
  d.detect_seconds = after.detect_seconds - before.detect_seconds;
  d.enumerate_seconds = after.enumerate_seconds - before.enumerate_seconds;
  d.edges_expanded = after.edges_expanded - before.edges_expanded;
  d.edges_pruned = after.edges_pruned - before.edges_pruned;
  d.paths_emitted = after.paths_emitted - before.paths_emitted;
  d.join_probes = after.join_probes - before.join_probes;
  d.join_rejected = after.join_rejected - before.join_rejected;
  d.num_clusters = after.num_clusters - before.num_clusters;
  d.sharing_nodes = after.sharing_nodes - before.sharing_nodes;
  d.dominating_nodes = after.dominating_nodes - before.dominating_nodes;
  d.cached_paths = after.cached_paths - before.cached_paths;
  d.cache_peak_vertices = after.cache_peak_vertices;
  return d;
}

/// Per-layer totals over the traced rounds of a run. "Per batch" means per
/// pipeline batch on batch-*, per micro-batch on serve-mixed and per
/// 64-query call on serve-sharded.
struct Layers {
  uint64_t batches = 0;  ///< pipeline batches whose BatchStats are in `stats`
  BatchStats stats;
  uint64_t standalone_batches = 0;
  double similarity_s = 0, linkage_s = 0;
  double mu_sum = 0;  ///< sum of the standalone matrices' average similarity
  uint64_t basic_batches = 0;
  double basic_plus_s = 0;
  uint64_t sink_batches = 0;
  double sink_s = 0;
  // PathEngine (serve-mixed).
  std::vector<double> wait_ms, batch_ms, update_ms;
  uint64_t windows = 0, engine_batches = 0, flush_cuts = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t updates = 0, repaired = 0, repair_skipped = 0;
  uint64_t overlay_extends = 0, compactions = 0, snapshots_live = 0;
  // ShardedPathService (serve-sharded).
  uint64_t calls = 0, dispatches = 0, hedges = 0, hedged_wins = 0;
  double router_self_s = 0;

  void AddBatch(const BatchStats& s) {
    ++batches;
    stats.Accumulate(s);
  }

  /// Standalone index build, similarity matrix and linkage on `queries`,
  /// outside any timed span (the traced run's phase split).
  void RunStandalonePhases(const Graph& g, const std::vector<PathQuery>& queries,
                           const BatchOptions& options, Tracer* tracer,
                           uint64_t request) {
    hcpath::DistanceIndex index;
    BatchStats scratch;
    {
      ScopedSpan span(tracer, "BuildBatchIndex", request);
      hcpath::BuildBatchIndex(g, queries, &index, &scratch);
    }
    auto t0 = SteadyClock::now();
    hcpath::SimilarityMatrix sim(0);
    {
      ScopedSpan span(tracer, "ComputeSimilarityMatrix", request);
      sim = hcpath::ComputeSimilarityMatrix(g, queries, index,
                                            options.similarity_mode);
    }
    similarity_s += Since(t0);
    mu_sum += sim.Average();
    t0 = SteadyClock::now();
    {
      ScopedSpan span(tracer, "ClusterQueries", request);
      auto clusters = hcpath::ClusterQueries(sim, options.gamma);
      (void)clusters;
    }
    linkage_s += Since(t0);
    ++standalone_batches;
  }

  void Emit(std::vector<Metric>* out) const {
    const double nb = static_cast<double>(batches);
    auto per_batch = [&](double v) { return Ratio(v, nb); };
    const BatchStats& s = stats;
    out->push_back({"index.build_s", per_batch(s.build_index_seconds), "s"});
    out->push_back({"similarity.s",
                    Ratio(similarity_s, static_cast<double>(standalone_batches)),
                    "s"});
    out->push_back({"linkage.s",
                    Ratio(linkage_s, static_cast<double>(standalone_batches)),
                    "s"});
    out->push_back({"cluster.s", per_batch(s.cluster_seconds), "s"});
    out->push_back({"cluster.count",
                    per_batch(static_cast<double>(s.num_clusters)), "count"});
    out->push_back({"detect.s", per_batch(s.detect_seconds), "s"});
    out->push_back({"detect.sharing_nodes",
                    per_batch(static_cast<double>(s.sharing_nodes)), "count"});
    out->push_back({"detect.dominating_nodes",
                    per_batch(static_cast<double>(s.dominating_nodes)),
                    "count"});
    out->push_back({"enumerate.s", per_batch(s.enumerate_seconds), "s"});
    out->push_back({"enumerate.ns_per_path",
                    Ratio(s.enumerate_seconds * 1e9,
                          static_cast<double>(s.paths_emitted)),
                    "ns"});
    out->push_back({"search.edges_expanded",
                    per_batch(static_cast<double>(s.edges_expanded)), "count"});
    out->push_back({"search.edges_pruned",
                    per_batch(static_cast<double>(s.edges_pruned)), "count"});
    out->push_back({"join.probes",
                    per_batch(static_cast<double>(s.join_probes)), "count"});
    out->push_back({"join.rejected",
                    per_batch(static_cast<double>(s.join_rejected)), "count"});
    out->push_back({"rcache.cached_paths",
                    per_batch(static_cast<double>(s.cached_paths)), "count"});
    out->push_back({"rcache.peak_vertices",
                    static_cast<double>(s.cache_peak_vertices), "count"});
    out->push_back({"emit.paths",
                    per_batch(static_cast<double>(s.paths_emitted)), "count"});
    out->push_back({"sink.s",
                    Ratio(sink_s, static_cast<double>(sink_batches)), "s"});
    out->push_back({"baseline.basic_plus_s",
                    Ratio(basic_plus_s, static_cast<double>(basic_batches)),
                    "s"});
    out->push_back({"index.cache_hit_rate",
                    Ratio(static_cast<double>(cache_hits),
                          static_cast<double>(cache_hits + cache_misses)),
                    "ratio"});
    const double nu = static_cast<double>(updates);
    out->push_back({"index.cache_repaired",
                    Ratio(static_cast<double>(repaired), nu), "count"});
    out->push_back({"index.cache_repair_skipped",
                    Ratio(static_cast<double>(repair_skipped), nu), "count"});
    out->push_back({"admission.wait_p50_ms", Median(wait_ms), "ms"});
    out->push_back({"engine.batch_p50_ms", Median(batch_ms), "ms"});
    const double nw = static_cast<double>(windows);
    out->push_back({"engine.batches",
                    Ratio(static_cast<double>(engine_batches), nw), "count"});
    out->push_back({"engine.flush_cuts",
                    Ratio(static_cast<double>(flush_cuts), nw), "count"});
    out->push_back({"update.p50_ms", Median(update_ms), "ms"});
    out->push_back({"store.overlay_extends",
                    Ratio(static_cast<double>(overlay_extends), nu), "count"});
    out->push_back({"store.compactions",
                    Ratio(static_cast<double>(compactions), nu), "count"});
    out->push_back({"store.snapshots_live", static_cast<double>(snapshots_live),
                    "count"});
    const double nc = static_cast<double>(calls);
    out->push_back({"router.dispatches",
                    Ratio(static_cast<double>(dispatches), nc), "count"});
    out->push_back({"router.hedges", Ratio(static_cast<double>(hedges), nc),
                    "count"});
    out->push_back({"router.hedged_wins",
                    Ratio(static_cast<double>(hedged_wins), nc), "count"});
    out->push_back({"router.self_s", Ratio(router_self_s, nc), "s"});
  }
};

// --------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the system under test and warms it up.
  virtual void Setup(uint64_t seed, bool quick) = 0;
  /// Runs one whole round: the same operations every time. `tracer` is
  /// non-null on traced rounds, which also fill `layers_`.
  virtual void RunRound(Tracer* tracer, StepLog* steps) = 0;
  /// After each traced round: the calls that only feed the per-layer
  /// figures (standalone phases, baselines), kept out of the round so that
  /// traced and untraced rounds differ by the tracing alone.
  virtual void RunTracedExtras(Tracer* tracer) = 0;
  /// Correctness checks against the oracle, outside any timing.
  virtual void Finish(RunReport* report) = 0;
  virtual size_t QueriesPerRound() const = 0;

  /// Latency samples (ms) of the untraced rounds, one per query.
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const Layers& layers() const { return layers_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 protected:
  void Problem(const std::string& what) {
    if (problems_.size() < 20) problems_.push_back(what);
  }
  void FinishCommon(RunReport* report) {
    report->problems.insert(report->problems.end(), problems_.begin(),
                            problems_.end());
  }

  std::vector<double> latency_ms_;
  Layers layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// batch-wide and batch-shared: fixed lists of batches through
/// BatchPathEnumerator::Run with BatchEnum+ on one compute thread.
class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(bool shared) : shared_(shared) {}

  void Setup(uint64_t seed, bool quick) override {
    const Graph base = BaseGraph(quick);
    hcpath::Rng rng(kInstanceSeed + (shared_ ? 2 : 1));
    const size_t num_batches = quick ? 2 : (shared_ ? 16 : 4);
    std::vector<std::vector<PathQuery>> base_batches;
    mu_ = 0;
    for (size_t b = 0; b < num_batches; ++b) {
      if (shared_) {
        auto set = MustOk(hcpath::GenerateQueriesWithSimilarity(
                              base, 100, 4, 7, 0.9, rng),
                          "similar query batch");
        mu_ += set.achieved_mu / static_cast<double>(num_batches);
        base_batches.push_back(std::move(set.queries));
      } else {
        hcpath::QueryGenOptions qopt;
        qopt.k_min = 4;
        qopt.k_max = 7;
        base_batches.push_back(MustOk(
            hcpath::GenerateRandomQueries(base, quick ? 100 : 500, qopt, rng),
            "random query batch"));
      }
    }
    inst_ = Relabel(base, seed);
    batches_.clear();
    for (const auto& bb : base_batches) {
      std::vector<PathQuery> mapped;
      for (const PathQuery& q : bb) mapped.push_back(inst_.ToRun(q));
      batches_.push_back(std::move(mapped));
    }
    ref_counts_.assign(batches_.size(), {});
    ref_hashes_.assign(batches_.size(), {});
    options_ = BatchOptions{};
    options_.algorithm = hcpath::Algorithm::kBatchEnumPlus;
    options_.num_threads = 1;
    enumerator_ = std::make_unique<hcpath::BatchPathEnumerator>(inst_.graph);
    // Warm-up: one batch, so first-use allocations are out of the loop.
    sink_.Reset(batches_[0].size(), false);
    auto warm = enumerator_->Run(batches_[0], options_,
                                 shared_ ? &sink_ : nullptr);
    if (!warm.ok()) Problem("warm-up batch failed: " + warm.status().ToString());
  }

  size_t QueriesPerRound() const override {
    size_t n = 0;
    for (const auto& b : batches_) n += b.size();
    return n;
  }

  void RunRound(Tracer* tracer, StepLog* steps) override {
    for (size_t b = 0; b < batches_.size(); ++b) {
      const auto& batch = batches_[b];
      sink_.Reset(batch.size(), tracer != nullptr);
      const auto t0 = SteadyClock::now();
      hcpath::StatusOr<hcpath::BatchResult> result = [&] {
        ScopedSpan span(tracer, "BatchPathEnumerator::Run", b);
        return enumerator_->Run(batch, options_, shared_ ? &sink_ : nullptr);
      }();
      const double seconds = Since(t0);
      steps->Add(b, seconds);
      attempted_ += batch.size();
      if (!result.ok()) {
        failed_ += batch.size();
        continue;
      }
      if (tracer == nullptr) {
        latency_ms_.insert(latency_ms_.end(), batch.size(), seconds * 1e3);
      }
      const auto r0 = SteadyClock::now();
      Record(b, *result);
      if (tracer != nullptr) {
        layers_.sink_s += shared_ ? sink_.EstimateSeconds() : Since(r0);
        ++layers_.sink_batches;
        layers_.AddBatch(result->stats);
      }
    }
  }

  /// The phase split and the BasicEnum+ baseline of every batch.
  void RunTracedExtras(Tracer* tracer) override {
    BatchOptions basic = options_;
    basic.algorithm = hcpath::Algorithm::kBasicEnumPlus;
    DigestSink basic_sink;
    for (size_t b = 0; b < batches_.size(); ++b) {
      const auto& batch = batches_[b];
      layers_.RunStandalonePhases(inst_.graph, batch, options_, tracer, b);
      basic_sink.Reset(batch.size(), false);
      const auto t0 = SteadyClock::now();
      {
        ScopedSpan span(tracer, "BatchPathEnumerator::Run(BasicEnum+)", b);
        auto r = enumerator_->Run(batch, basic, shared_ ? &basic_sink : nullptr);
        if (!r.ok()) Problem("BasicEnum+ baseline failed: " + r.status().ToString());
      }
      layers_.basic_plus_s += Since(t0);
      ++layers_.basic_batches;
    }
  }

  void Finish(RunReport* report) override {
    const OracleGraph graph(inst_.graph.NumVertices(), inst_.edges);
    Oracle oracle(graph);
    const size_t stride = shared_ ? 10 : 25;
    size_t checked = 0;
    for (size_t b = 0; b < batches_.size(); ++b) {
      if (ref_counts_[b].empty()) continue;  // every run of it failed
      for (size_t i = 0; i < batches_[b].size(); i += stride) {
        const OracleAnswer want = oracle.Solve(ToOracle(batches_[b][i]));
        const std::string fault =
            CheckAnswer(want, ref_counts_[b][i],
                        shared_ ? ref_hashes_[b][i] : 0, shared_);
        if (!fault.empty()) {
          Problem("batch " + std::to_string(b) + " query " +
                  std::to_string(i) + ": " + fault);
        }
        ++checked;
      }
    }
    // Verification pass, untimed: path properties of the sampled queries of
    // the first two batches, and for count-only batch-wide their hashes.
    size_t verified = 0;
    for (size_t b = 0; b < std::min<size_t>(2, batches_.size()); ++b) {
      const auto& batch = batches_[b];
      std::vector<bool> check(batch.size(), false);
      for (size_t i = 0; i < batch.size(); i += stride) check[i] = true;
      CheckingSink checking(graph, batch, check);
      auto r = enumerator_->Run(batch, options_, &checking);
      if (!r.ok()) {
        Problem("verification run failed: " + r.status().ToString());
        continue;
      }
      std::string fault = checking.Finish();
      if (!fault.empty()) Problem("batch " + std::to_string(b) + ": " + fault);
      if (!ref_counts_[b].empty() && checking.counts() != ref_counts_[b]) {
        Problem("batch " + std::to_string(b) +
                ": sink counts differ from Run's counts");
      }
      for (size_t i = 0; i < batch.size(); i += stride) {
        const OracleAnswer want = oracle.Solve(ToOracle(batch[i]));
        fault = CheckAnswer(want, checking.counts()[i], checking.hashes()[i],
                            true);
        if (!fault.empty()) Problem("verification: " + fault);
        ++verified;
      }
    }
    const std::string identity = CheckEmitIdentity(emitted_, counted_);
    if (!identity.empty()) Problem(identity);
    FinishCommon(report);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%zu batches x %zu queries%s; oracle checked %zu "
                  "queries, path properties on %zu; emitted %llu paths",
                  batches_.size(), batches_[0].size(),
                  shared_ ? (", generator mu_Q " + std::to_string(mu_)).c_str()
                          : "",
                  checked, verified, static_cast<unsigned long long>(emitted_));
    report->notes.push_back(Describe(inst_));
    report->notes.push_back(buf);
  }

 private:
  /// Keeps the first round's per-query answers and checks every later
  /// round reproduces them exactly.
  void Record(size_t b, const hcpath::BatchResult& r) {
    const uint64_t sum = r.TotalPaths();
    emitted_ += r.stats.paths_emitted;
    counted_ += sum;
    if (shared_ && sink_.Total() != sum) {
      Problem("sink saw " + std::to_string(sink_.Total()) + " paths, Run counted " +
              std::to_string(sum));
    }
    if (ref_counts_[b].empty()) {
      ref_counts_[b] = r.path_counts;
      if (shared_) ref_hashes_[b] = sink_.hashes();
      return;
    }
    if (r.path_counts != ref_counts_[b] ||
        (shared_ && sink_.hashes() != ref_hashes_[b])) {
      Problem("batch " + std::to_string(b) + ": answers differ between rounds");
    }
  }

  const bool shared_;
  double mu_ = 0;
  Instance inst_;
  std::vector<std::vector<PathQuery>> batches_;
  BatchOptions options_;
  std::unique_ptr<hcpath::BatchPathEnumerator> enumerator_;
  DigestSink sink_;
  std::vector<std::vector<uint64_t>> ref_counts_, ref_hashes_;
  uint64_t emitted_ = 0, counted_ = 0;
};

/// Per-(template, graph state) answers seen so far, and the materialized
/// answers kept for the oracle.
class AnswerBook {
 public:
  struct Kept {
    PathQuery query;
    int state = 0;
    uint64_t count = 0, hash = 0;
    std::vector<std::vector<Vertex>> paths;
  };

  /// Template indices divisible by this are checked against the oracle.
  static constexpr uint32_t kSampleStride = 16;

  /// Returns false when an earlier answer of the same key differs.
  bool Note(uint32_t tmpl, int state, uint64_t count, uint64_t hash) {
    const uint64_t key = uint64_t{tmpl} * 2 + static_cast<uint64_t>(state);
    auto [it, fresh] = seen_.try_emplace(key, count, hash);
    return fresh || it->second == std::make_pair(count, hash);
  }
  bool WantsPaths(uint32_t tmpl, int state) const {
    return tmpl % kSampleStride == 0 &&
           !kept_.count(uint64_t{tmpl} * 2 + static_cast<uint64_t>(state));
  }
  void Keep(uint32_t tmpl, Kept kept) {
    kept_.emplace(uint64_t{tmpl} * 2 + static_cast<uint64_t>(kept.state),
                  std::move(kept));
  }
  const std::map<uint64_t, Kept>& kept() const { return kept_; }

 private:
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> seen_;
  std::map<uint64_t, Kept> kept_;
};

/// Checks every kept answer against the oracle on its graph state.
size_t CheckKept(const AnswerBook& book, const std::vector<OracleGraph*>& graphs,
                 std::vector<std::string>* problems) {
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (OracleGraph* g : graphs) oracles.push_back(std::make_unique<Oracle>(*g));
  size_t checked = 0;
  for (const auto& [key, kept] : book.kept()) {
    const OracleAnswer want = oracles[kept.state]->Solve(ToOracle(kept.query));
    std::string fault = CheckAnswer(want, kept.count, kept.hash, true);
    if (fault.empty()) {
      fault = CheckPaths(*graphs[kept.state], ToOracle(kept.query), kept.paths);
    }
    if (!fault.empty() && problems->size() < 20) {
      problems->push_back("template " + std::to_string(key / 2) + ": " + fault);
    }
    ++checked;
  }
  return checked;
}

/// serve-mixed: one closed-loop client feeding a store-backed PathEngine in
/// 64-query windows over 4 tenants, Flush after each window, and a fixed
/// update batch (alternately U and its inverse) after every 8th window.
class ServeMixed : public Workload {
 public:
  void Setup(uint64_t seed, bool quick) override {
    in_ = MakeServeInputs(seed, quick);
    store_ = std::make_unique<hcpath::GraphStore>(in_.inst.graph);
    hcpath::PathEngineOptions opt;
    opt.max_wait_seconds = 0;
    opt.max_batch_size = kWindow;
    opt.collect_paths = true;
    opt.batch.num_threads = 2;
    engine_ = std::make_unique<hcpath::PathEngine>(store_.get(), opt);
    if (!engine_->status().ok()) {
      throw std::runtime_error("engine: " + engine_->status().ToString());
    }
    // Warm-up: the first 16 windows with their two updates, which leave
    // the graph in its initial state.
    StepLog ignored;
    for (size_t w = 0; w < std::min<size_t>(16, in_.windows.size() / 4); ++w) {
      RunWindow(w, nullptr, &ignored, 0, /*warm=*/true);
      if (w % 8 == 7) RunUpdate(nullptr, &ignored, 0, /*warm=*/true);
    }
    after_warm_up_ = engine_->GetStats();
  }

  size_t QueriesPerRound() const override {
    return in_.windows.size() * kWindow;
  }

  void RunRound(Tracer* tracer, StepLog* steps) override {
    size_t step = 0;
    for (size_t w = 0; w < in_.windows.size(); ++w) {
      RunWindow(w, tracer, steps, step++, false);
      if (w % 8 == 7) RunUpdate(tracer, steps, step++, false);
    }
  }

  void Finish(RunReport* report) override {
    const hcpath::PathEngineStats stats = engine_->GetStats();
    const hcpath::PathEngineStats& warm = after_warm_up_;
    if (stats.queries_completed != stats.queries_submitted ||
        stats.queries_rejected != 0 || stats.queries_shed != 0) {
      Problem("engine did not complete every submitted query");
    }
    const std::string identity =
        CheckEmitIdentity(stats.batch_stats.paths_emitted, counted_);
    if (!identity.empty()) Problem(identity);
    OracleGraph before(in_.inst.graph.NumVertices(), in_.inst.edges);
    OracleGraph after(in_.inst.graph.NumVertices(), in_.edges_after_update);
    const size_t checked = CheckKept(book_, {&before, &after}, &problems_);
    FinishCommon(report);
    const uint64_t windows = windows_run_;
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "%zu-edge update; oracle checked %zu (template, state) answers; "
        "over %llu windows: %.3f batches and %.3f flush cuts per window, "
        "cache hit rate %.3f, %llu updates",
        in_.update.size(), checked, static_cast<unsigned long long>(windows),
        Ratio(static_cast<double>(stats.batches_run - warm.batches_run),
              static_cast<double>(windows)),
        Ratio(static_cast<double>(stats.flush_cuts - warm.flush_cuts),
              static_cast<double>(windows)),
        Ratio(static_cast<double>(stats.distance_cache_hits -
                                  warm.distance_cache_hits),
              static_cast<double>(stats.distance_cache_hits +
                                  stats.distance_cache_misses -
                                  warm.distance_cache_hits -
                                  warm.distance_cache_misses)),
        static_cast<unsigned long long>(stats.graph_updates - warm.graph_updates));
    report->notes.push_back(in_.Describe());
    report->notes.push_back(buf);
    char upd[128];
    std::snprintf(upd, sizeof(upd), "update p50 %.3f ms over %zu updates",
                  Median(update_ms_), update_ms_.size());
    report->notes.push_back(upd);
  }

 private:
  void RunWindow(size_t w, Tracer* tracer, StepLog* steps, size_t step,
                 bool warm) {
    const auto& window = in_.windows[w];
    const int state = static_cast<int>(updates_applied_ % 2);
    hcpath::PathEngineStats before;
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "PathEngine::GetStats", w);
      before = engine_->GetStats();
    }
    std::vector<std::future<hcpath::QueryResult>> futures(window.size());
    std::vector<SteadyClock::time_point> submitted(window.size());
    std::vector<hcpath::QueryResult> results(window.size());
    std::vector<double> latency(window.size());
    const auto t0 = SteadyClock::now();
    for (size_t i = 0; i < window.size(); ++i) {
      submitted[i] = SteadyClock::now();
      ScopedSpan span(tracer, "PathEngine::Submit", w);
      futures[i] = engine_->Submit(kTenantNames[i % kTenants],
                                   in_.pool[window[i]]);
    }
    {
      ScopedSpan span(tracer, "PathEngine::Flush", w);
      engine_->Flush();
    }
    for (size_t i = 0; i < window.size(); ++i) {
      ScopedSpan span(tracer, "future.get", w);
      results[i] = futures[i].get();
      latency[i] = Since(submitted[i]);
    }
    // The client reads every vertex of every answer.
    const auto r0 = SteadyClock::now();
    std::vector<uint64_t> hashes(window.size());
    for (size_t i = 0; i < window.size(); ++i) {
      hashes[i] = PathSetHash(results[i].paths);
    }
    const double read_s = Since(r0);
    steps->Add(step, Since(t0));

    for (size_t i = 0; i < window.size(); ++i) {
      const hcpath::QueryResult& r = results[i];
      const uint32_t tmpl = window[i];
      if (!warm) ++attempted_;
      if (!r.status.ok()) {
        if (!warm) ++failed_;
        continue;
      }
      counted_ += r.path_count;
      if (r.graph_epoch != updates_applied_) {
        Problem("query ran on epoch " + std::to_string(r.graph_epoch) +
                ", expected " + std::to_string(updates_applied_));
      }
      if (r.path_count != r.paths.size()) {
        Problem("path_count differs from the paths returned");
      }
      if (!book_.Note(tmpl, state, r.path_count, hashes[i])) {
        Problem("template " + std::to_string(tmpl) +
                ": answer differs from an earlier one on the same graph");
      }
      if (book_.WantsPaths(tmpl, state)) {
        AnswerBook::Kept kept{in_.pool[tmpl], state, r.path_count, hashes[i], {}};
        for (size_t p = 0; p < r.paths.size(); ++p) {
          kept.paths.emplace_back(r.paths[p].begin(), r.paths[p].end());
        }
        book_.Keep(tmpl, std::move(kept));
      }
      if (tracer != nullptr) {
        layers_.wait_ms.push_back(r.wait_seconds * 1e3);
        layers_.batch_ms.push_back(r.batch_seconds * 1e3);
      }
    }
    if (!warm) ++windows_run_;
    if (tracer == nullptr && !warm) {
      for (double l : latency) latency_ms_.push_back(l * 1e3);
    }
    if (tracer != nullptr) {
      hcpath::PathEngineStats after;
      {
        ScopedSpan span(tracer, "PathEngine::GetStats", w);
        after = engine_->GetStats();
      }
      ++layers_.windows;
      layers_.engine_batches += after.batches_run - before.batches_run;
      layers_.flush_cuts += after.flush_cuts - before.flush_cuts;
      layers_.cache_hits += after.distance_cache_hits - before.distance_cache_hits;
      layers_.cache_misses +=
          after.distance_cache_misses - before.distance_cache_misses;
      const BatchStats d = Delta(before.batch_stats, after.batch_stats);
      layers_.batches += after.batches_run - before.batches_run;
      layers_.stats.Accumulate(d);
      layers_.sink_s += read_s;
      ++layers_.sink_batches;
    }
  }

  /// The phase split of every window, on the round-end snapshot (the
  /// round applies an even number of updates, so that is the initial
  /// graph).
  void RunTracedExtras(Tracer* tracer) override {
    const auto snapshot = store_->Current();
    for (size_t w = 0; w < in_.windows.size(); ++w) {
      std::vector<PathQuery> queries;
      for (uint32_t t : in_.windows[w]) queries.push_back(in_.pool[t]);
      layers_.RunStandalonePhases(snapshot->graph, queries,
                                  engine_->options().batch, tracer, w);
    }
  }

  void RunUpdate(Tracer* tracer, StepLog* steps, size_t step, bool warm) {
    const auto& updates = updates_applied_ % 2 == 0 ? in_.update : in_.inverse;
    hcpath::PathEngineStats before;
    hcpath::GraphStoreStats store_before;
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "PathEngine::GetStats", updates_applied_);
      before = engine_->GetStats();
      store_before = store_->GetStats();
    }
    const auto t0 = SteadyClock::now();
    hcpath::StatusOr<hcpath::GraphUpdateResult> r = [&] {
      ScopedSpan span(tracer, "PathEngine::ApplyUpdates", updates_applied_);
      return engine_->ApplyUpdates(updates);
    }();
    const double seconds = Since(t0);
    steps->Add(step, seconds);
    if (!warm) ++attempted_;
    if (!r.ok()) {
      if (!warm) ++failed_;
      Problem("update failed; later epochs are unchecked: " +
              r.status().ToString());
      return;
    }
    if (r->applied.added.size() + r->applied.removed.size() != updates.size()) {
      Problem("update batch was not fully effective");
    }
    ++updates_applied_;
    if (!warm && tracer == nullptr) update_ms_.push_back(seconds * 1e3);
    if (tracer != nullptr) {
      hcpath::PathEngineStats after;
      hcpath::GraphStoreStats store;
      {
        ScopedSpan span(tracer, "PathEngine::GetStats", updates_applied_);
        after = engine_->GetStats();
        store = store_->GetStats();
      }
      ++layers_.updates;
      layers_.update_ms.push_back(seconds * 1e3);
      layers_.repaired += after.cache_entries_repaired - before.cache_entries_repaired;
      layers_.repair_skipped += after.cache_repair_skipped - before.cache_repair_skipped;
      layers_.overlay_extends += r->used_overlay ? 1 : 0;
      layers_.compactions += store.compactions - store_before.compactions;
      layers_.snapshots_live = std::max(layers_.snapshots_live, store.snapshots_live);
    }
  }

  ServeInputs in_;
  std::unique_ptr<hcpath::GraphStore> store_;
  std::unique_ptr<hcpath::PathEngine> engine_;  ///< destroyed before store_
  hcpath::PathEngineStats after_warm_up_;
  uint64_t updates_applied_ = 0;
  uint64_t windows_run_ = 0;
  uint64_t counted_ = 0;
  std::vector<double> update_ms_;
  AnswerBook book_;
};

/// serve-sharded: the same Zipf stream as 64-query SubmitBatch calls on a
/// 4-shard replicated ShardedPathService, each driven by RunToCompletion.
/// A round is the whole stream in sessions of 64 calls: the service and its
/// VirtualClock are rebuilt, untimed, before each session. A service keeps
/// a record of every query it ever served, so one service for the whole
/// run would tie the process's peak RSS to the run's length and speed.
class ServeSharded : public Workload {
 public:
  static constexpr size_t kSessionCalls = 64;

  void Setup(uint64_t seed, bool quick) override {
    in_ = MakeServeInputs(seed, quick);
    reference_ = std::make_unique<hcpath::BatchPathEnumerator>(in_.inst.graph);
    NewSession();
    StepLog ignored;
    for (size_t c = 0; c < in_.windows.size() / 8; ++c) {
      RunCall(c, nullptr, &ignored, true);
    }
    CloseSession();
  }

  size_t QueriesPerRound() const override {
    return in_.windows.size() * kWindow;
  }

  void RunRound(Tracer* tracer, StepLog* steps) override {
    for (size_t c = 0; c < in_.windows.size(); ++c) {
      if (c % kSessionCalls == 0) {
        if (c > 0) CloseSession();
        NewSession();
      }
      RunCall(c, tracer, steps, false);
    }
    CloseSession();
  }

  /// For every traced call: the same 64 queries as one-query
  /// BatchPathEnumerator::Run calls (router.self_s is the call's wall time
  /// minus theirs, and their BatchStats give the core per-layer figures),
  /// and the phase split on the call's queries.
  void RunTracedExtras(Tracer* tracer) override {
    const hcpath::BatchOptions options = service_->options().batch;
    DigestSink ref_sink;
    for (const auto& [c, call_seconds] : traced_calls_) {
      std::vector<PathQuery> queries;
      for (uint32_t t : in_.windows[c]) queries.push_back(in_.pool[t]);
      BatchStats call_stats;
      double reference_s = 0;
      for (const PathQuery& q : queries) {
        ref_sink.Reset(1, false);
        const auto t0 = SteadyClock::now();
        ScopedSpan span(tracer, "BatchPathEnumerator::Run(one query)", c);
        auto r = reference_->Run({q}, options, &ref_sink);
        reference_s += Since(t0);
        if (r.ok()) call_stats.Accumulate(r->stats);
      }
      layers_.router_self_s += call_seconds - reference_s;
      layers_.AddBatch(call_stats);
      layers_.RunStandalonePhases(in_.inst.graph, queries, options, tracer, c);
    }
    traced_calls_.clear();
  }

  void Finish(RunReport* report) override {
    NewSession();
    KeepSampled();
    CloseSession();
    const std::string fault = CheckEmitIdentity(sink_paths_, counted_);
    if (!fault.empty()) Problem(fault);
    OracleGraph graph(in_.inst.graph.NumVertices(), in_.inst.edges);
    const size_t checked = CheckKept(book_, {&graph}, &problems_);
    FinishCommon(report);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%zu calls x %zu queries per session on 4 shards; %llu "
                  "sessions conserved; oracle checked %zu templates; %llu "
                  "dispatches, %llu hedges, %llu hedged wins over %llu "
                  "queries",
                  in_.windows.size(), kWindow,
                  static_cast<unsigned long long>(sessions_), checked,
                  static_cast<unsigned long long>(totals_.dispatches),
                  static_cast<unsigned long long>(totals_.hedges),
                  static_cast<unsigned long long>(totals_.hedged_wins),
                  static_cast<unsigned long long>(totals_.queries_submitted));
    report->notes.push_back(in_.Describe());
    report->notes.push_back(buf);
  }

 private:
  void NewSession() {
    service_.reset();
    clock_ = std::make_unique<hcpath::VirtualClock>();
    hcpath::ShardedServiceOptions opt;
    opt.num_shards = 4;
    opt.routing = hcpath::RoutingPolicy::kHash;
    opt.enable_hedging = true;
    opt.batch.num_threads = 1;
    opt.collect_paths = false;
    service_ = std::make_unique<hcpath::ShardedPathService>(
        &in_.inst.graph, opt, clock_.get());
    if (!service_->init_status().ok()) {
      throw std::runtime_error("service: " +
                               service_->init_status().ToString());
    }
  }

  /// Checks the session's conservation laws once it is idle.
  void CloseSession() {
    const hcpath::ShardedServiceStats s = service_->GetStats();
    ConservationCounts c;
    c.submitted = s.queries_submitted;
    c.completed = s.queries_completed;
    c.failed = s.queries_failed;
    c.rejected = s.queries_rejected;
    c.stalled = s.queries_stalled;
    c.dispatches = s.dispatches;
    c.attempts_completed = s.attempts_completed;
    c.attempts_failed = s.attempts_failed;
    c.attempts_cancelled = s.attempts_cancelled;
    c.attempts_dropped = s.attempts_dropped;
    c.attempts_in_flight = s.attempts_in_flight;
    const std::string fault = CheckConservation(c);
    if (!fault.empty()) Problem("conservation: " + fault);
    ++sessions_;
    totals_.queries_submitted += s.queries_submitted;
    totals_.dispatches += s.dispatches;
    totals_.hedges += s.hedges;
    totals_.hedged_wins += s.hedged_wins;
  }

  void RunCall(size_t c, Tracer* tracer, StepLog* steps, bool warm) {
    const auto& window = in_.windows[c];
    std::vector<PathQuery> queries;
    for (uint32_t t : window) queries.push_back(in_.pool[t]);
    hcpath::ShardedServiceStats before;
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "ShardedPathService::GetStats", c);
      before = service_->GetStats();
    }
    sink_.Reset(queries.size(), tracer != nullptr);
    std::vector<hcpath::QueryResult> results(queries.size());
    const auto t0 = SteadyClock::now();
    {
      std::vector<std::future<hcpath::QueryResult>> futures;
      {
        ScopedSpan span(tracer, "ShardedPathService::SubmitBatch", c);
        futures = service_->SubmitBatch(kTenantNames[c % kTenants], queries,
                                        &sink_);
      }
      {
        ScopedSpan span(tracer, "ShardedPathService::RunToCompletion", c);
        service_->RunToCompletion(clock_.get());
      }
      for (size_t i = 0; i < futures.size(); ++i) results[i] = futures[i].get();
    }
    const double seconds = Since(t0);
    steps->Add(c, seconds);
    if (tracer == nullptr && !warm) {
      latency_ms_.insert(latency_ms_.end(), queries.size(), seconds * 1e3);
    }
    sink_paths_ += sink_.Total();
    for (size_t i = 0; i < results.size(); ++i) {
      const hcpath::QueryResult& r = results[i];
      if (!warm) ++attempted_;
      if (!r.status.ok()) {
        if (!warm) ++failed_;
        continue;
      }
      counted_ += r.path_count;
      if (r.path_count != sink_.counts()[i]) {
        Problem("path_count differs from the paths streamed to the sink");
      }
      if (!book_.Note(window[i], 0, r.path_count, sink_.hashes()[i])) {
        Problem("template " + std::to_string(window[i]) +
                ": answer differs from an earlier one");
      }
    }
    if (tracer != nullptr) {
      hcpath::ShardedServiceStats after;
      {
        ScopedSpan span(tracer, "ShardedPathService::GetStats", c);
        after = service_->GetStats();
      }
      ++layers_.calls;
      layers_.dispatches += after.dispatches - before.dispatches;
      layers_.hedges += after.hedges - before.hedges;
      layers_.hedged_wins += after.hedged_wins - before.hedged_wins;
      layers_.sink_s += sink_.EstimateSeconds();
      ++layers_.sink_batches;
      traced_calls_.emplace_back(c, seconds);
    }
  }

  /// Untimed: one more SubmitBatch carrying one query of every sampled
  /// template the stream holds, with a collecting sink, so the oracle can
  /// check counts, hashes and path properties of the sharded answers.
  void KeepSampled() {
    std::vector<uint32_t> templates;
    for (const auto& window : in_.windows) {
      for (uint32_t t : window) {
        if (book_.WantsPaths(t, 0) &&
            std::find(templates.begin(), templates.end(), t) ==
                templates.end()) {
          templates.push_back(t);
        }
      }
    }
    if (templates.empty()) return;
    std::vector<PathQuery> queries;
    for (uint32_t t : templates) queries.push_back(in_.pool[t]);
    hcpath::CollectingSink collect(queries.size());
    auto futures = service_->SubmitBatch("verify", queries, &collect);
    service_->RunToCompletion(clock_.get());
    for (size_t j = 0; j < templates.size(); ++j) {
      const hcpath::QueryResult r = futures[j].get();
      if (!r.status.ok()) {
        Problem("verification query failed: " + r.status.ToString());
        continue;
      }
      const hcpath::PathSet& paths = collect.paths(j);
      sink_paths_ += paths.size();
      counted_ += r.path_count;
      const uint64_t hash = PathSetHash(paths);
      if (!book_.Note(templates[j], 0, r.path_count, hash)) {
        Problem("template " + std::to_string(templates[j]) +
                ": verification answer differs from the timed one");
      }
      AnswerBook::Kept kept{queries[j], 0, r.path_count, hash, {}};
      for (size_t p = 0; p < paths.size(); ++p) {
        kept.paths.emplace_back(paths[p].begin(), paths[p].end());
      }
      book_.Keep(templates[j], std::move(kept));
    }
  }

  ServeInputs in_;
  std::unique_ptr<hcpath::VirtualClock> clock_;
  std::unique_ptr<hcpath::ShardedPathService> service_;  ///< uses *clock_
  hcpath::ShardedServiceStats totals_;
  uint64_t sessions_ = 0;
  std::vector<std::pair<size_t, double>> traced_calls_;  ///< (call, seconds)
  std::unique_ptr<hcpath::BatchPathEnumerator> reference_;
  DigestSink sink_;
  AnswerBook book_;
  uint64_t sink_paths_ = 0, counted_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "batch-wide") return std::make_unique<BatchWorkload>(false);
  if (name == "batch-shared") return std::make_unique<BatchWorkload>(true);
  if (name == "serve-mixed") return std::make_unique<ServeMixed>();
  if (name == "serve-sharded") return std::make_unique<ServeSharded>();
  throw std::invalid_argument("unknown workload: " + name);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "batch-wide", "batch-shared", "serve-mixed", "serve-sharded"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  const int repeats = options.quick ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    workload.reset();  // one instance alive at a time
    workload = MakeWorkload(options.workload);
    const auto t0 = SteadyClock::now();
    workload->Setup(options.seed, options.quick);
    setup_s.push_back(Since(t0));
  }

  // Untraced runs measure whole rounds until `seconds` have passed. The
  // traced run alternates untraced and traced rounds, so the two share the
  // machine's state, and compares them for the tracing overhead.
  StepLog untraced, traced;
  Tracer tracer;
  std::vector<double> round_p50, round_p99;
  size_t rounds = 0;
  const auto loop0 = SteadyClock::now();
  for (;;) {
    const bool traced_round = options.trace && rounds % 2 == 1;
    const size_t samples_before = workload->latency_ms().size();
    if (traced_round) {
      {
        ScopedSpan span(&tracer, "round", rounds);
        workload->RunRound(&tracer, &traced);
      }
      ScopedSpan span(&tracer, "round.extras", rounds);
      workload->RunTracedExtras(&tracer);
    } else {
      workload->RunRound(nullptr, &untraced);
    }
    ++rounds;
    if (!traced_round) {
      const auto& lat = workload->latency_ms();
      const std::vector<double> round(
          lat.begin() + static_cast<int64_t>(samples_before), lat.end());
      round_p50.push_back(Median(round));
      round_p99.push_back(Percentile(round, 0.99));
    }
    const bool enough = options.trace
                            ? rounds % 2 == 0 && rounds / 2 >= kMinTracedRunRounds
                            : rounds >= kMinRounds;
    if (Since(loop0) >= options.seconds && enough) break;
  }
  const double loop_s = Since(loop0);

  const auto check0 = SteadyClock::now();
  workload->Finish(&report);
  const double check_s = Since(check0);
  report.attempted = workload->attempted();
  report.failed = workload->failed();

  const double round_s = untraced.RobustRoundSeconds();
  const auto& lat = workload->latency_ms();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu rounds in %.2f s; robust round %.4f s; %zu latency "
                "samples; set-up median of %d: %.3f s; checks %.2f s",
                rounds, loop_s, round_s, lat.size(), repeats, Median(setup_s),
                check_s);
  report.notes.push_back(buf);
  std::string per_round = "untraced round seconds:";
  for (double r : untraced.RoundSeconds()) {
    std::snprintf(buf, sizeof(buf), " %.3f", r);
    per_round += buf;
  }
  report.notes.push_back(per_round);
  // Latency percentiles are taken per round, then medianed over rounds. The
  // p99 swings with the machine's load far beyond any usable bound (see
  // README.md), so it is a per-layer figure rather than an end-to-end one.
  const double p99 = Median(round_p99);
  std::snprintf(buf, sizeof(buf), "lat_p99_ms %.4f (per-layer tail.lat_p99_ms)",
                p99);
  report.notes.push_back(buf);

  if (!options.trace) {
    report.metrics.push_back(
        {"queries_per_s",
         Ratio(static_cast<double>(workload->QueriesPerRound()), round_s),
         "1/s"});
    report.metrics.push_back({"lat_p50_ms", Median(round_p50), "ms"});
    report.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    report.metrics.push_back({"setup_s", Median(setup_s), "s"});
    return report;
  }
  workload->layers().Emit(&report.metrics);
  const Layers& layers = workload->layers();
  report.notes.push_back(
      "mu_Q of the traced batches " +
      std::to_string(Ratio(layers.mu_sum,
                           static_cast<double>(layers.standalone_batches))));
  report.metrics.push_back({"tail.lat_p99_ms", p99, "ms"});
  report.metrics.push_back(
      {"trace.overhead_pct",
       (Ratio(traced.RobustRoundSeconds(), round_s) - 1) * 100, "%"});
  if (!options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (ec || !tracer.WriteJsonLines(path)) {
      report.notes.push_back("could not write spans to " + path);
    } else {
      report.notes.push_back("spans written to " + path + " (" +
                             std::to_string(tracer.spans().size()) + ")");
    }
  }
  return report;
}

}  // namespace perfbench

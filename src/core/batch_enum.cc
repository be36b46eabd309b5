#include "core/batch_enum.h"

#include <algorithm>
#include <memory>

#include "core/basic_enum.h"
#include "core/cache.h"
#include "core/clustering.h"
#include "core/detect.h"
#include "core/join.h"
#include "core/parallel_merge.h"
#include "core/path_enum.h"
#include "core/search.h"
#include "core/similarity.h"
#include "index/distance_index.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hcpath {

namespace {

using NodeId = SharingGraph::NodeId;

/// Consumer count of a node: sharing users (unless reuse is disabled) plus
/// one per attached query (roots are read once more at assembly).
uint32_t ConsumerCount(const SharingGraph::Node& node,
                       const BatchOptions& options) {
  uint32_t users = options.disable_cache_reuse
                       ? 0
                       : static_cast<uint32_t>(node.users.size());
  return users + static_cast<uint32_t>(node.attached_queries.size());
}

/// Enumerates every HC-s path node of one sharing graph in topological
/// order, filling `cache` (Algorithm 4 lines 6-10 and 14-16).
Status EnumerateSharingGraph(const Graph& g, Direction dir,
                             const SharingGraph& psi,
                             const std::vector<PathQuery>& queries,
                             const DistanceIndex& index,
                             const BatchOptions& options,
                             ResultCache* cache, BatchStats* stats,
                             ThreadPool* pool, EpochStampPool* stamps) {
  std::vector<uint32_t> refcounts(psi.NumNodes());
  for (NodeId id = 0; id < psi.NumNodes(); ++id) {
    refcounts[id] = ConsumerCount(psi.node(id), options);
  }
  cache->Init(std::move(refcounts), options.max_cache_vertices);

  // Kernel dispatch resolved once per sharing graph, not per node search.
  const ResolvedKernel rk = ResolveKernel(options.kernel_mode, g);

  for (NodeId id : psi.TopologicalOrder()) {
    const SharingGraph::Node& node = psi.node(id);
    const bool wanted = ConsumerCount(node, options) > 0;
    if (!wanted) continue;  // isolated node (reuse disabled or all edges
                            // dropped); nothing reads it

    // Resolve pruning slacks against the batch index: forward searches
    // prune with target maps, backward with source maps. Queries sharing
    // the same opposite endpoint collapse to one entry (max slack), which
    // keeps the per-edge pruning loop short for near-duplicate clusters.
    std::vector<TargetSlack> slacks;
    std::vector<VertexId> slack_endpoints;
    int max_slack = 0;
    slacks.reserve(node.slacks.size());
    for (const auto& se : node.slacks) {
      const VertexId endpoint = dir == Direction::kForward
                                    ? queries[se.query].t
                                    : queries[se.query].s;
      const VertexDistMap* map = dir == Direction::kForward
                                     ? &index.ToTargetMap(se.query)
                                     : &index.FromSourceMap(se.query);
      bool merged = false;
      for (size_t i = 0; i < slack_endpoints.size(); ++i) {
        if (slack_endpoints[i] == endpoint) {
          // Same opposite endpoint: keep the larger (more permissive)
          // slack and the map whose cap covers it.
          if (se.slack > slacks[i].slack) slacks[i] = {map, se.slack};
          merged = true;
          break;
        }
      }
      if (!merged) {
        slacks.push_back({map, se.slack});
        slack_endpoints.push_back(endpoint);
      }
      max_slack = std::max(max_slack, se.slack);
    }
    // Most permissive entries first: Admissible() exits on the first hit.
    std::sort(slacks.begin(), slacks.end(),
              [](const TargetSlack& a, const TargetSlack& b) {
                return a.slack > b.slack;
              });

    // Shortcut table from the reuse edges discovered by detection.
    std::vector<SearchDep> deps;
    const SearchDep* self_dep = nullptr;
    if (!options.disable_cache_reuse) {
      deps.reserve(node.dep_at.size());
      for (const auto& [vertex, dep_id] : node.dep_at) {
        deps.push_back(
            {vertex, psi.node(dep_id).budget, &cache->Get(dep_id)});
      }
      for (const SearchDep& d : deps) {
        if (d.vertex == node.vertex && d.budget >= node.budget) {
          self_dep = &d;
          break;
        }
      }
    }

    PathSet result;
    if (self_dep != nullptr) {
      // This node was displaced by a larger-budget node anchored at the
      // same vertex: derive by filtering the cached superset (Theorem 4.1).
      const PathSet& src = *self_dep->paths;
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.Length(i) <= node.budget) {
          if (options.max_paths_per_query != 0 &&
              result.size() >= options.max_paths_per_query) {
            return Status::ResourceExhausted(
                "HC-s path node exceeded max_paths_per_query");
          }
          result.Add(src[i]);
          if (stats != nullptr) ++stats->shortcut_splices;
        }
      }
    } else {
      HalfSearchSpec spec;
      spec.start = node.vertex;
      spec.budget = node.budget;
      spec.dir = dir;
      if (options.shared_pruning == SharedPruning::kGlobalMin) {
        spec.global_min = &index.MinDistToOpposite(dir);
        spec.global_max_slack = max_slack;
      } else {
        spec.slacks = slacks;
      }
      spec.deps = deps;
      spec.max_paths = options.max_paths_per_query;
      spec.kernel = options.kernel_mode;
      spec.resolved = rk;
      // Deep root searches of a giant cluster frontier-split on the pool
      // (search.cc); the sub-merge keeps the stored order sequential.
      spec.pool = pool;
      spec.stamps = stamps;
      // A forward root that nobody shares only feeds its own query's join,
      // so useless prefixes need not be materialized — this makes
      // BatchEnum degrade to BasicEnum cost when there is no sharing.
      if (dir == Direction::kForward && node.is_root && node.users.empty() &&
          node.attached_queries.size() == 1 && deps.empty()) {
        spec.filter_for_join = true;
        spec.store_target = queries[node.attached_queries[0]].t;
      }
      HCPATH_RETURN_NOT_OK(RunHalfSearch(g, spec, &result, stats));
    }

    if (stats != nullptr) stats->cached_paths += result.size();
    HCPATH_RETURN_NOT_OK(cache->Put(id, std::move(result)));
    if (!options.disable_cache_reuse) {
      for (NodeId dep_id : node.deps) cache->Release(dep_id);
    }
    if (stats != nullptr) {
      stats->cache_peak_vertices =
          std::max(stats->cache_peak_vertices, cache->peak_vertices());
    }
  }
  return Status::OK();
}

/// Phases 2+3 for one cluster: detection, shared enumeration, assembly.
/// Reads only immutable batch state (graph, queries, index, budgets), so
/// independent clusters can run on different workers; every mutable object
/// (sharing graphs, caches, sink, stats) is local to the call.
///
/// With a non-null `pool` and enough live queries
/// (BatchOptions::intra_cluster_min_queries) the cluster's own phases also
/// run as sub-tasks: the two detection traversals and the two sharing-graph
/// enumerations pair up, deep root searches frontier-split (search.cc), and
/// the per-query assembly joins go through the same buffered streaming
/// merge as the clusters themselves. Every sub-merge is in input order, so
/// the cluster's emission stream, counters, and error outcome match the
/// sequential path — this is what keeps thread scaling on skewed batches
/// where one giant cluster would otherwise serialize on one worker.
Status ProcessCluster(const Graph& g, const std::vector<PathQuery>& queries,
                      const BatchOptions& options,
                      const std::vector<size_t>& cluster,
                      const std::vector<Hop>& hf, const std::vector<Hop>& hb,
                      const std::vector<bool>& reachable,
                      const DistanceIndex& index, ThreadPool* pool,
                      BatchContext& bctx, PathSink* sink,
                      BatchStats* stats) {
  std::vector<Hop> fwd_budgets, bwd_budgets;
  std::vector<bool> skip;
  size_t live = 0;
  for (size_t qi : cluster) {
    fwd_budgets.push_back(hf[qi]);
    bwd_budgets.push_back(hb[qi]);
    skip.push_back(!reachable[qi]);
    if (reachable[qi]) ++live;
  }
  if (live == 0) return Status::OK();

  const size_t intra_min = static_cast<size_t>(
      std::max(2, options.intra_cluster_min_queries));
  const bool intra =
      pool != nullptr && pool->num_workers() > 0 && live >= intra_min;
  ThreadPool* intra_pool = intra ? pool : nullptr;

  DetectionResult fwd, bwd;
  {
    WallTimer detect_timer;
    DetectBothDirections(g, queries, cluster, fwd_budgets, bwd_budgets,
                         skip, index, options, intra_pool, &fwd, &bwd,
                         stats);
    if (stats != nullptr) stats->detect_seconds += detect_timer.ElapsedSeconds();
  }

  double enum_seconds = 0;
  {
    ScopedTimer timer(&enum_seconds);
    ResultCache fwd_cache, bwd_cache;
    if (intra_pool != nullptr) {
      // The two directions touch disjoint caches and private stats, so
      // they enumerate concurrently; stats fold forward-first and the
      // forward error (the one the sequential order hits first) wins.
      Status dir_status[2];
      BatchStats dir_stats[2];
      intra_pool->ParallelFor(2, [&](size_t d) {
        if (d == 0) {
          dir_status[0] = EnumerateSharingGraph(
              g, Direction::kForward, fwd.psi, queries, index, options,
              &fwd_cache, stats != nullptr ? &dir_stats[0] : nullptr,
              intra_pool, &bctx.stamps);
        } else {
          dir_status[1] = EnumerateSharingGraph(
              g, Direction::kBackward, bwd.psi, queries, index, options,
              &bwd_cache, stats != nullptr ? &dir_stats[1] : nullptr,
              intra_pool, &bctx.stamps);
        }
      });
      if (stats != nullptr) {
        stats->Accumulate(dir_stats[0]);
        stats->Accumulate(dir_stats[1]);
      }
      HCPATH_RETURN_NOT_OK(dir_status[0]);
      HCPATH_RETURN_NOT_OK(dir_status[1]);
    } else {
      HCPATH_RETURN_NOT_OK(EnumerateSharingGraph(
          g, Direction::kForward, fwd.psi, queries, index, options,
          &fwd_cache, stats, nullptr, &bctx.stamps));
      HCPATH_RETURN_NOT_OK(EnumerateSharingGraph(
          g, Direction::kBackward, bwd.psi, queries, index, options,
          &bwd_cache, stats, nullptr, &bctx.stamps));
    }

    // Assembly (Algorithm 4 lines 11-13): per-query concatenation join
    // over the shared root results, filtered to this query's budgets.
    auto join_one = [&](size_t pos, PathSink* join_sink,
                        BatchStats* join_stats) -> Status {
      if (skip[pos]) return Status::OK();
      const size_t qi = cluster[pos];
      JoinSpec join;
      join.forward = &fwd_cache.Get(fwd.root_of[pos]);
      join.backward = &bwd_cache.Get(bwd.root_of[pos]);
      join.s = queries[qi].s;
      join.t = queries[qi].t;
      join.hf = hf[qi];
      join.hb = hb[qi];
      join.max_paths = options.max_paths_per_query;
      join.kernel = options.kernel_mode;
      return JoinAndEmit(join, qi, join_sink, join_stats,
                         &bctx.join_scratch)
          .status();
    };
    if (intra_pool != nullptr) {
      // Query-parallel assembly: joins only read the caches; releases move
      // after the merge (ResultCache is not thread-safe). The streaming
      // merge reproduces the sequential per-query emission order.
      MergeMetrics mm;
      Status st = RunBufferedParallel(*intra_pool, cluster.size(), sink,
                                      stats, join_one, &mm, &bctx.sinks);
      FoldMergeMetrics(mm, stats);
      HCPATH_RETURN_NOT_OK(st);
      for (size_t pos = 0; pos < cluster.size(); ++pos) {
        if (skip[pos]) continue;
        fwd_cache.Release(fwd.root_of[pos]);
        bwd_cache.Release(bwd.root_of[pos]);
      }
    } else {
      for (size_t pos = 0; pos < cluster.size(); ++pos) {
        if (skip[pos]) continue;
        HCPATH_RETURN_NOT_OK(join_one(pos, sink, stats));
        fwd_cache.Release(fwd.root_of[pos]);
        bwd_cache.Release(bwd.root_of[pos]);
      }
    }
    HCPATH_DCHECK(fwd_cache.Drained());
    HCPATH_DCHECK(bwd_cache.Drained());
  }
  if (stats != nullptr) stats->enumerate_seconds += enum_seconds;
  return Status::OK();
}

}  // namespace

Status RunBatchEnum(const Graph& g, const std::vector<PathQuery>& queries,
                    const BatchOptions& options, bool optimized_order,
                    PathSink* sink, BatchStats* stats, BatchContext* ctx) {
  HCPATH_RETURN_NOT_OK(options.Validate());
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, queries));
  WallTimer total;

  // One-shot callers get a call-local context; a long-lived caller's ctx
  // recycles the index storage, BFS scratch, clustering scratch, and merge
  // buffers, and carries the cross-batch distance cache.
  BatchContext local_ctx;
  BatchContext& c = ctx != nullptr ? *ctx : local_ctx;
  ThreadPool* pool = c.PoolFor(options.num_threads);

  // Phase 0: shared index (Algorithm 4 lines 1-2).
  DistanceIndex& index = c.index;
  BuildBatchIndex(g, queries, &index, stats, pool, &c);

  const size_t n = queries.size();
  std::vector<bool> reachable(n);
  for (size_t i = 0; i < n; ++i) {
    Hop d = index.DistToTarget(i, queries[i].s);
    reachable[i] = d != kUnreachable && d <= queries[i].k;
  }

  // Phase 1: query clustering (Algorithm 2).
  std::vector<std::vector<size_t>> clusters;
  if (options.disable_clustering || n < 2) {
    clusters.emplace_back();
    for (size_t i = 0; i < n; ++i) clusters[0].push_back(i);
  } else {
    WallTimer similarity_timer;
    SimilarityMatrix sim =
        ComputeSimilarityMatrix(g, queries, index, options.similarity_mode,
                                pool, &c.similarity);
    const double similarity_s = similarity_timer.ElapsedSeconds();
    WallTimer linkage_timer;
    clusters = ClusterQueries(sim, options.gamma);
    const double linkage_s = linkage_timer.ElapsedSeconds();
    if (stats != nullptr) {
      stats->similarity_seconds += similarity_s;
      stats->linkage_seconds += linkage_s;
      stats->cluster_seconds += similarity_s + linkage_s;
      stats->similarity_pairs += c.similarity.pairs;
    }
  }
  if (stats != nullptr) stats->num_clusters += clusters.size();
  // A call-local context has no later batch to recycle the clustering
  // scratch for: free it before enumeration sets the memory peak.
  if (ctx == nullptr) local_ctx.similarity = SimilarityScratch();

  // Hop budget split per query. The optimized search order (the "+"
  // variants) only applies to queries clustered alone: queries that share
  // need aligned ⌈k/2⌉/⌊k/2⌋ budgets for dominating queries to meet at the
  // same remaining budget, and misaligned splits would both shrink sharing
  // and inflate the detection cones.
  std::vector<size_t> cluster_size_of(n, 1);
  for (const std::vector<size_t>& cluster : clusters) {
    for (size_t qi : cluster) cluster_size_of[qi] = cluster.size();
  }
  std::vector<Hop> hf(n), hb(n);
  for (size_t i = 0; i < n; ++i) {
    const bool optimize_this = optimized_order && cluster_size_of[i] == 1;
    hf[i] = ChooseForwardBudget(index.FromSourceMap(i), index.ToTargetMap(i),
                                queries[i].k, optimize_this);
    hb[i] = static_cast<Hop>(queries[i].k - hf[i]);
  }

  // Phases 2+3 per cluster: detection, shared enumeration, assembly.
  if (pool == nullptr || clusters.size() < 2) {
    // One cluster (or sequential run): emit straight into the sink. A
    // fully skewed parallel batch lands here with its single giant cluster
    // and parallelizes *inside* ProcessCluster instead.
    for (const std::vector<size_t>& cluster : clusters) {
      HCPATH_RETURN_NOT_OK(ProcessCluster(g, queries, options, cluster, hf,
                                          hb, reachable, index, pool, c,
                                          sink, stats));
    }
  } else {
    // Cluster-parallel: clusters are independent by construction
    // (Algorithm 2 partitions the batch), so each runs as one buffered
    // task; the streaming ordered merge (parallel_merge.h) reproduces the
    // sequential emission stream, counters, and error semantics bit for
    // bit while draining finished prefixes early. Big clusters additionally
    // fan out into sub-tasks inside ProcessCluster.
    MergeMetrics mm;
    Status st = RunBufferedParallel(
        *pool, clusters.size(), sink, stats,
        [&](size_t ci, PathSink* cluster_sink, BatchStats* cluster_stats) {
          return ProcessCluster(g, queries, options, clusters[ci], hf, hb,
                                reachable, index, pool, c, cluster_sink,
                                cluster_stats);
        },
        &mm, &c.sinks);
    FoldMergeMetrics(mm, stats);
    HCPATH_RETURN_NOT_OK(st);
  }

  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return Status::OK();
}

}  // namespace hcpath

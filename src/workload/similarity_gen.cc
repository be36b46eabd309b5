#include "workload/similarity_gen.h"

#include <algorithm>
#include <cmath>

#include "bfs/bfs.h"
#include "core/basic_enum.h"
#include "core/enumerator.h"
#include "core/similarity.h"
#include "index/distance_index.h"
#include "workload/query_gen.h"

namespace hcpath {

namespace {

/// Perturbs a seed query into a pool member: occasionally swaps the target
/// for a random out-neighbor (keeping it reachable) and re-rolls k.
PathQuery PerturbSeed(const Graph& g, const PathQuery& seed, int k_min,
                      int k_max, Rng& rng) {
  PathQuery q = seed;
  q.k = static_cast<int>(rng.NextInt(k_min, k_max));
  if (rng.NextBernoulli(0.3)) {
    auto nbrs = g.OutNeighbors(seed.t);
    if (!nbrs.empty()) {
      VertexId cand = nbrs[rng.NextBounded(nbrs.size())];
      if (cand != q.s &&
          ReachableWithin(g, q.s, cand, static_cast<Hop>(q.k))) {
        q.t = cand;
      }
    }
  }
  // A re-rolled k below dist(s, t) would make the query vacuous; fall back
  // to the seed's k (the seed is reachable by construction).
  if (!ReachableWithin(g, q.s, q.t, static_cast<Hop>(q.k))) {
    q.k = std::max(q.k, seed.k);
  }
  return q;
}

}  // namespace

double MeasureAverageSimilarity(const Graph& g,
                                const std::vector<PathQuery>& queries) {
  if (queries.size() < 2) return 0;
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr);
  // A fixed mode rule, not kAuto's cost rule: the generated workloads (and
  // the benchmarks built on them) must not change when the clustering cost
  // rule is tuned. Sketches once |Q|^2 * |V|/64 exceeds 1e7, else exact.
  const double n = static_cast<double>(queries.size());
  const bool sketch =
      n * n * (static_cast<double>(g.NumVertices()) / 64.0) > 10e6;
  SimilarityMatrix sim = ComputeSimilarityMatrix(
      g, queries, index,
      sketch ? SimilarityMode::kSketch : SimilarityMode::kExact);
  return sim.Average();
}

StatusOr<SimilarQuerySet> GenerateQueriesWithSimilarity(
    const Graph& g, size_t count, int k_min, int k_max, double target_mu,
    Rng& rng) {
  if (target_mu < 0 || target_mu > 0.97) {
    return Status::InvalidArgument("target_mu must be in [0, 0.97]");
  }
  QueryGenOptions qopt;
  qopt.k_min = k_min;
  qopt.k_max = k_max;
  // Skip near-trivial endpoints: pool seeds are replicated ~|Q| times, so a
  // degenerate seed (adjacent s, t) would collapse the whole workload.
  qopt.min_distance = std::min(3, k_min);

  // Random base set reused across calibration iterations.
  auto random_set = GenerateRandomQueries(g, count, qopt, rng);
  if (!random_set.ok()) return random_set.status();
  if (target_mu == 0) {
    SimilarQuerySet out;
    out.queries = std::move(*random_set);
    out.achieved_mu = MeasureAverageSimilarity(g, out.queries);
    return out;
  }

  // Pool seeds. Cross-pool pairs have µ ≈ 0, so the achievable average
  // similarity is capped near 1/#pools: high targets need one big pool,
  // low targets spread the pooled queries across several hotspots.
  const size_t max_pools = std::max<size_t>(1, count / 12);
  const size_t num_pools = std::clamp<size_t>(
      static_cast<size_t>(1.0 / std::max(target_mu, 0.08)), 1, max_pools);

  // Seeds are drawn from the random base set at the 60th..90th result-count
  // percentile: pooled queries replace random ones as the target grows, so
  // a degenerate (or extreme) seed would make rows incomparable across
  // similarity levels.
  // Result counts are heavy-tailed, so "comparable" means matching the
  // *mean* per-query weight, which sits far above the median.
  std::vector<size_t> seed_order(random_set->size());
  for (size_t i = 0; i < seed_order.size(); ++i) seed_order[i] = i;
  size_t mean_pos = seed_order.size() / 2;
  {
    BatchPathEnumerator probe(g);
    BatchOptions opt;
    opt.algorithm = Algorithm::kBasicEnum;
    opt.max_paths_per_query = 1'000'000;
    auto counts = probe.Run(*random_set, opt);
    if (counts.ok()) {
      std::stable_sort(seed_order.begin(), seed_order.end(),
                       [&](size_t a, size_t b) {
                         return counts->path_counts[a] <
                                counts->path_counts[b];
                       });
      const double mean = static_cast<double>(counts->TotalPaths()) /
                          static_cast<double>(random_set->size());
      mean_pos = 0;
      while (mean_pos + 1 < seed_order.size() &&
             static_cast<double>(
                 counts->path_counts[seed_order[mean_pos]]) < mean) {
        ++mean_pos;
      }
    }
  }
  std::vector<PathQuery> seeds;
  for (size_t p = 0; p < num_pools; ++p) {
    // Seeds straddle the mean-count position so pooled rows carry roughly
    // the same total weight as the random rows they replace.
    const size_t idx =
        std::min(seed_order.size() - 1, mean_pos + p);
    seeds.push_back((*random_set)[seed_order[idx]]);
  }

  auto build = [&](double pool_fraction, Rng& local_rng) {
    std::vector<PathQuery> qs;
    qs.reserve(count);
    const size_t pool_count = static_cast<size_t>(
        std::round(pool_fraction * static_cast<double>(count)));
    for (size_t i = 0; i < count; ++i) {
      if (i < pool_count) {
        const PathQuery& seed = seeds[i % seeds.size()];
        qs.push_back(PerturbSeed(g, seed, k_min, k_max, local_rng));
      } else {
        qs.push_back((*random_set)[i]);
      }
    }
    return qs;
  };

  // Bisection on the pooled fraction; µ_Q grows monotonically with it.
  double lo = 0.0, hi = 1.0;
  double f = std::sqrt(target_mu);  // µ_Q ≈ f² for disjoint pools
  SimilarQuerySet best;
  double best_err = 1e9;
  for (int iter = 0; iter < 7; ++iter) {
    Rng local = rng.Split();
    std::vector<PathQuery> qs = build(f, local);
    const double mu = MeasureAverageSimilarity(g, qs);
    const double err = std::abs(mu - target_mu);
    if (err < best_err) {
      best_err = err;
      best.queries = std::move(qs);
      best.achieved_mu = mu;
    }
    if (err < 0.02) break;
    if (mu < target_mu) {
      lo = f;
    } else {
      hi = f;
    }
    f = (lo + hi) / 2;
  }
  return best;
}

}  // namespace hcpath

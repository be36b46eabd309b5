#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace hcpath {

namespace {

size_t Find(std::vector<size_t>& parent, size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Average-linkage agglomeration of one component, `members` ascending.
/// This is the whole-batch loop restricted to the component: the same
/// merge order, tie-breaks (smallest local, hence global, indices first)
/// and pair-sum additions. Appends the resulting clusters, each sorted,
/// to `out`.
void LinkComponent(const SimilarityMatrix& sim,
                   const std::vector<size_t>& members, double gamma,
                   std::vector<std::vector<size_t>>* out) {
  const size_t m = members.size();
  std::vector<std::vector<size_t>> clusters(m);
  for (size_t a = 0; a < m; ++a) clusters[a] = {members[a]};

  // pair_sum[a * m + b] = sum of µ over cross pairs of clusters a, b;
  // average linkage δ = pair_sum / (|Ca| * |Cb|). Merging a <- b updates
  // sums by simple addition, keeping every step O(m).
  std::vector<double> pair_sum(m * m, 0.0);
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a != b) pair_sum[a * m + b] = sim.Get(members[a], members[b]);
    }
  }
  std::vector<bool> active(m, true);

  while (true) {
    double best = gamma;
    size_t ba = m, bb = m;
    for (size_t a = 0; a < m; ++a) {
      if (!active[a]) continue;
      for (size_t b = a + 1; b < m; ++b) {
        if (!active[b]) continue;
        const double delta = pair_sum[a * m + b] /
                             (static_cast<double>(clusters[a].size()) *
                              static_cast<double>(clusters[b].size()));
        if (delta > best) {
          best = delta;
          ba = a;
          bb = b;
        }
      }
    }
    if (ba == m) break;  // no pair above gamma
    // Merge bb into ba.
    clusters[ba].insert(clusters[ba].end(), clusters[bb].begin(),
                        clusters[bb].end());
    clusters[bb].clear();
    active[bb] = false;
    for (size_t c = 0; c < m; ++c) {
      if (!active[c] || c == ba) continue;
      pair_sum[ba * m + c] += pair_sum[bb * m + c];
      pair_sum[c * m + ba] = pair_sum[ba * m + c];
    }
  }

  for (size_t a = 0; a < m; ++a) {
    if (active[a]) {
      std::sort(clusters[a].begin(), clusters[a].end());
      out->push_back(std::move(clusters[a]));
    }
  }
}

}  // namespace

std::vector<std::vector<size_t>> ClusterQueries(const SimilarityMatrix& sim,
                                                double gamma) {
  const size_t n = sim.size();
  // Edge threshold: γ lowered by the worst rounding of an average of up to
  // n^2 cells, so a cross-component δ — an average of cells <= tau,
  // rounded at most (1 + u)^(n^2) up — can never exceed γ (a plain `> γ`
  // edge test would miss three cells equal to 0.1 averaging to
  // 0.10000000000000002). A lower threshold only joins components, which
  // the per-component loop handles like the whole-batch one.
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  const double tau =
      gamma - std::fabs(gamma) * 2.0 * nn *
                  std::numeric_limits<double>::epsilon();

  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (sim.Get(i, j) > tau) parent[Find(parent, j)] = Find(parent, i);
    }
  }

  // Members of each component, ascending; roots index the lists.
  std::vector<std::vector<size_t>> members(n);
  for (size_t i = 0; i < n; ++i) members[Find(parent, i)].push_back(i);

  std::vector<std::vector<size_t>> clusters;
  for (size_t r = 0; r < n; ++r) {
    if (members[r].size() == 1) {
      clusters.push_back(std::move(members[r]));
    } else if (members[r].size() > 1) {
      LinkComponent(sim, members[r], gamma, &clusters);
    }
  }
  // Clusters in the order of their smallest query, as the whole-batch loop
  // lists its surviving (lowest-index) representatives.
  std::sort(clusters.begin(), clusters.end(),
            [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return a.front() < b.front();
            });
  return clusters;
}

}  // namespace hcpath

#include "core/similarity.h"

#include <algorithm>

#include "util/bitset.h"
#include "util/hash.h"

namespace hcpath {

namespace {

constexpr size_t kSketchSize = 256;

double HarmonicMu(double fwd, double bwd) {
  if (fwd <= 0.0 || bwd <= 0.0) return 0.0;
  return 2.0 * fwd * bwd / (fwd + bwd);
}

/// Bottom-k sketch of a vertex set: the k smallest Mix64 hashes, sorted.
/// Built straight from the distance map to avoid materializing and sorting
/// the full key set; `hashes` is a recycled output vector.
void BuildSketch(const VertexDistMap& set, std::vector<uint64_t>* hashes) {
  hashes->clear();
  hashes->reserve(set.size());
  set.ForEach([&](VertexId v, Hop) { hashes->push_back(Mix64(v)); });
  if (hashes->size() > kSketchSize) {
    std::nth_element(hashes->begin(), hashes->begin() + kSketchSize - 1,
                     hashes->end());
    hashes->resize(kSketchSize);
  }
  std::sort(hashes->begin(), hashes->end());
}

/// Estimates |A ∩ B| / min(|A|, |B|) from two bottom-k sketches and the
/// true set sizes. Within the hash window below both sketches' thresholds
/// each sketch is a *complete* uniform sample of its set, so
///   shared_in_window / min(a_in_window, b_in_window)
/// is a consistent estimator of the overlap coefficient.
double SketchOverlap(const std::vector<uint64_t>& sa, size_t size_a,
                     const std::vector<uint64_t>& sb, size_t size_b) {
  if (size_a == 0 || size_b == 0 || sa.empty() || sb.empty()) return 0.0;
  // A sketch is truncated only when its set exceeds kSketchSize; its last
  // hash is then the completeness threshold.
  const uint64_t cap_a = size_a > kSketchSize ? sa.back() : UINT64_MAX;
  const uint64_t cap_b = size_b > kSketchSize ? sb.back() : UINT64_MAX;
  const uint64_t tau = std::min(cap_a, cap_b);
  size_t i = 0, j = 0, shared = 0, a_in = 0, b_in = 0;
  while (i < sa.size() && sa[i] <= tau) ++i;
  a_in = i;
  while (j < sb.size() && sb[j] <= tau) ++j;
  b_in = j;
  i = 0;
  j = 0;
  while (i < a_in && j < b_in) {
    if (sa[i] == sb[j]) {
      ++shared;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t denom = std::min(a_in, b_in);
  if (denom == 0) return 0.0;
  return std::clamp(
      static_cast<double>(shared) / static_cast<double>(denom), 0.0, 1.0);
}

using Side = SimilarityScratch::Side;

/// Sizes the per-query vectors for n queries. Outer vectors only grow, so a
/// batch smaller than an earlier one keeps the spare entries' storage.
void Prepare(Side* d, size_t n, bool sketch) {
  d->size.assign(n, 0);
  if (d->keys.size() < n) d->keys.resize(n);
  if (sketch && d->sketch.size() < n) d->sketch.resize(n);
  if (!sketch && d->bits.size() < n) d->bits.resize(n);
}

/// Number of keys of `small` for which `contains` (a membership test on the
/// other set's bitset or distance map) holds.
template <typename Contains>
size_t ProbeCount(const std::vector<VertexId>& small, Contains&& contains) {
  size_t inter = 0;
  for (VertexId v : small) inter += contains(v) ? 1 : 0;
  return inter;
}

size_t AndCount(const DynamicBitset& a, const DynamicBitset& b) {
  const uint64_t* wa = a.words();
  const uint64_t* wb = b.words();
  size_t c = 0;
  for (size_t w = 0; w < a.num_words(); ++w) {
    c += static_cast<size_t>(__builtin_popcountll(wa[w] & wb[w]));
  }
  return c;
}

/// Exact-mode overlap of queries i and j in one direction. Sets below
/// `probe_limit` keep their keys (see the fill step), so the smaller set of
/// a pair below the limit can always be walked.
double ExactOverlap(const Side& d, size_t i, size_t j, size_t probe_limit) {
  const size_t si = d.size[i], sj = d.size[j];
  const size_t denom = std::min(si, sj);
  if (denom == 0) return 0.0;
  size_t inter;
  if (denom < probe_limit) {
    const bool i_small = si <= sj;
    const DynamicBitset& big = d.bits[i_small ? j : i];
    inter = ProbeCount(d.keys[i_small ? i : j],
                       [&](VertexId v) { return big.Test(v); });
  } else {
    inter = AndCount(d.bits[i], d.bits[j]);
  }
  return static_cast<double>(inter) / static_cast<double>(denom);
}

/// Sketch-mode overlap of queries i and j in one direction, whose maps are
/// `mi` and `mj`. A set that fits in a sketch entirely is intersected
/// exactly against the other's map (tiny sets vs huge reaches are common
/// for low-in-degree targets), where the windowed estimator would have no
/// samples to work with.
double SketchModeOverlap(const Side& d, size_t i, size_t j,
                         const VertexDistMap& mi, const VertexDistMap& mj) {
  const size_t si = d.size[i], sj = d.size[j];
  const size_t denom = std::min(si, sj);
  if (denom == 0) return 0.0;
  if (denom <= kSketchSize) {
    const bool i_small = si <= sj;
    const VertexDistMap& big = i_small ? mj : mi;
    const size_t inter =
        ProbeCount(d.keys[i_small ? i : j],
                   [&](VertexId v) { return big.Contains(v); });
    return static_cast<double>(inter) / static_cast<double>(denom);
  }
  return SketchOverlap(d.sketch[i], si, d.sketch[j], sj);
}

}  // namespace

double SimilarityMatrix::Average() const {
  if (n_ < 2) return 0.0;
  double acc = 0;
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) acc += Get(i, j);
  }
  return acc / (static_cast<double>(n_) * (n_ - 1) / 2.0);
}

double OverlapCoefficient(const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(std::min(a.size(), b.size()));
}

SimilarityMatrix ComputeSimilarityMatrix(
    const Graph& g, const std::vector<PathQuery>& queries,
    const DistanceIndex& index, SimilarityMode mode, ThreadPool* pool,
    SimilarityScratch* scratch) {
  const size_t n = queries.size();
  SimilarityMatrix sim(n);
  if (n < 2) return sim;

  // Working memory: the caller's recycled scratch, or a call-local one.
  SimilarityScratch local_scratch;
  SimilarityScratch& sc = scratch != nullptr ? *scratch : local_scratch;

  // Row-parallel driver: pair (i, j > i) is computed by row task i alone,
  // and Set writes only that pair's two mirror cells, so rows never touch
  // the same memory. Sequential when no pool is given.
  auto for_each_row = [&](const std::function<void(size_t)>& row_fn) {
    if (pool != nullptr) {
      pool->ParallelFor(n, row_fn);
    } else {
      for (size_t i = 0; i < n; ++i) row_fn(i);
    }
  };

  bool use_sketch = mode == SimilarityMode::kSketch;
  if (mode == SimilarityMode::kAuto) {
    // Word-ANDing every pair's bitsets would cost |Q|^2 * |V|/64 word
    // operations plus the bitset fills; switch to sketches once that worst
    // case exceeds a small fixed budget.
    const double exact_ops = static_cast<double>(n) * n *
                             (static_cast<double>(g.NumVertices()) / 64.0);
    use_sketch = exact_ops > 10e6;
  }

  const size_t nv = g.NumVertices();
  // Exact mode walks a pair's smaller set while it is cheaper than the
  // bitsets' word count; sketch mode walks any set that fits in a sketch.
  const size_t probe_limit = use_sketch ? kSketchSize + 1 : (nv + 63) / 64;
  Prepare(&sc.fwd, n, use_sketch);
  Prepare(&sc.bwd, n, use_sketch);
  // Fills query i's entry of one direction in one pass over its map. Safe
  // row-parallel: task i only touches entry i. Bitset Resize re-zeroes a
  // recycled set while keeping its words, so bits a previous batch left
  // behind cannot leak in.
  auto fill = [&](const VertexDistMap& m, Side& d, size_t i) {
    d.size[i] = m.size();
    std::vector<VertexId>& keys = d.keys[i];
    keys.clear();
    const bool walkable = m.size() < probe_limit;
    if (use_sketch) {
      BuildSketch(m, &d.sketch[i]);
      if (walkable) m.ForEach([&](VertexId v, Hop) { keys.push_back(v); });
      return;
    }
    DynamicBitset& bits = d.bits[i];
    bits.Resize(nv);
    m.ForEach([&](VertexId v, Hop) {
      bits.Set(v);
      if (walkable) keys.push_back(v);
    });
  };
  for_each_row([&](size_t i) {
    fill(index.FromSourceMap(i), sc.fwd, i);
    fill(index.ToTargetMap(i), sc.bwd, i);
  });

  for_each_row([&](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      // µ is 0 when the forward overlap is: skip the backward one and
      // leave the constructor's 0 in place.
      double f, b;
      if (use_sketch) {
        f = SketchModeOverlap(sc.fwd, i, j, index.FromSourceMap(i),
                              index.FromSourceMap(j));
        if (f <= 0.0) continue;
        b = SketchModeOverlap(sc.bwd, i, j, index.ToTargetMap(i),
                              index.ToTargetMap(j));
      } else {
        f = ExactOverlap(sc.fwd, i, j, probe_limit);
        if (f <= 0.0) continue;
        b = ExactOverlap(sc.bwd, i, j, probe_limit);
      }
      sim.Set(i, j, HarmonicMu(f, b));
    }
  });
  return sim;
}

}  // namespace hcpath

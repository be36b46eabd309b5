#include "core/similarity.h"

#include <algorithm>
#include <functional>

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

using Postings = SimilarityScratch::Postings;
using RowCounters = SimilarityScratch::RowCounters;

/// Per-operation costs of the three routes, in units of one key tested
/// against a bitset (~0.7 ns). Fitted to timings of all three routes on
/// random and pooled batches of the EP, SL, BK and WT stand-ins, where the
/// fitted rule picks the fastest route in every case (docs/PERF.md "Query
/// clustering").
constexpr double kPairCost = 26;             // visiting one pair, either loop
constexpr double kExactWordCost = 6;         // one word of a word-AND
constexpr double kExactIncidenceCost = 9;    // set a bit, keep a key
constexpr double kSketchProbeCost = 5;       // probe a distance map
constexpr double kSketchMergeCost = 1000;    // merge two full sketches
constexpr double kSketchIncidenceCost = 28;  // hash, select and sort a key
constexpr double kScanIncidenceCost = 30;    // count, lay out, walk a key

/// Estimated costs of one batch's routes, from the Γ sizes alone. ScanCount
/// costs `scan_fixed` plus one per bump, which only the count can tell.
struct RouteCosts {
  double exact = 0, sketch = 0, scan_fixed = 0;
  size_t total[2] = {0, 0};  // Σ|Γ| forward, backward
};

RouteCosts EstimateRouteCosts(const DistanceIndex& index, size_t n,
                              size_t words) {
  RouteCosts c;
  std::vector<size_t> sizes(n);
  for (int dir = 0; dir < 2; ++dir) {
    for (size_t i = 0; i < n; ++i) {
      sizes[i] = dir == 0 ? index.FromSourceMap(i).size()
                          : index.ToTargetMap(i).size();
      c.total[dir] += sizes[i];
    }
    // A pair costs about its smaller set, walked until a word-AND (exact)
    // or the estimator (sketch) takes over; the k-th smallest set is the
    // smaller one of n - 1 - k pairs.
    std::sort(sizes.begin(), sizes.end());
    for (size_t k = 0; k < n; ++k) {
      const double m = static_cast<double>(sizes[k]);
      const double pairs = static_cast<double>(n - 1 - k);
      c.exact += pairs * (sizes[k] < words
                              ? m
                              : kExactWordCost * static_cast<double>(words));
      c.sketch +=
          pairs * (sizes[k] <= kSketchSize ? kSketchProbeCost * m
                                           : kSketchMergeCost);
    }
  }
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2;
  const double total = static_cast<double>(c.total[0] + c.total[1]);
  c.exact += kPairCost * pairs + kExactIncidenceCost * total;
  c.sketch += kPairCost * pairs + kSketchIncidenceCost * total;
  c.scan_fixed = kScanIncidenceCost * total;
  return c;
}

/// The fewest bumps, Σ_v C(|P_v|, 2), that `total` incidences spread over
/// at most `nv` vertices can cost: the lists as even as possible. A batch
/// above the budget by this bound alone is not counted at all.
uint64_t MinBumps(uint64_t total, uint64_t nv) {
  if (nv == 0) return 0;
  const uint64_t q = total / nv, r = total % nv;
  return r * (q + 1) * q / 2 + (nv - r) * q * (q > 0 ? q - 1 : 0) / 2;
}

/// Counts one direction's postings into `p`: a slot per distinct vertex
/// (slot_end holds the list lengths for now) and each query's `total`
/// incidences as slots, query-major. Adds Σ_v C(|P_v|, 2) to *bumps as it
/// goes and gives up, returning false, once that exceeds `budget`.
template <typename MapOf>
bool CountPostings(size_t n, size_t nv, size_t total, MapOf&& map_of,
                   uint64_t budget, SimilarityScratch* sc, Postings* p,
                   uint64_t* bumps) {
  if (sc->slot_of.size() < nv) sc->slot_of.resize(nv, 0);
  if (++sc->epoch == 0) {  // wrapped: stale tags could match again
    std::fill(sc->slot_of.begin(), sc->slot_of.end(), 0);
    sc->epoch = 1;
  }
  const uint32_t epoch = sc->epoch;
  const uint64_t tag = static_cast<uint64_t>(epoch) << 32;
  uint64_t* slot_of = sc->slot_of.data();
  std::vector<uint32_t>& counts = p->slot_end;
  counts.clear();
  // Reserved, not resized: a count that gives up early leaves the rest of
  // the storage untouched.
  std::vector<uint32_t>& inc = p->inc_slot;
  inc.clear();
  inc.reserve(total);
  p->inc_begin.resize(n + 1);
  uint64_t b = *bumps;
  for (size_t i = 0; i < n; ++i) {
    p->inc_begin[i] = inc.size();
    map_of(i).ForEach([&](VertexId v, Hop) {
      uint64_t e = slot_of[v];
      if ((e >> 32) != epoch) {
        e = tag | counts.size();
        slot_of[v] = e;
        counts.push_back(0);
      }
      const uint32_t slot = static_cast<uint32_t>(e);
      b += counts[slot]++;
      inc.push_back(slot);
    });
    if (b > budget) return false;
  }
  p->inc_begin[n] = inc.size();
  *bumps = b;
  return true;
}

/// Lays the counted postings out: each vertex's list in ascending query
/// order, slot_end turned into list ends, and inc_next pointing just past
/// the query's own entry, where the later queries of that list start.
void FillPostings(size_t n, Postings* p) {
  uint32_t start = 0;
  for (uint32_t& c : p->slot_end) {
    const uint32_t len = c;
    c = start;
    start += len;
  }
  p->queries.resize(start);
  p->inc_next.resize(p->inc_slot.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = p->inc_begin[i]; k < p->inc_begin[i + 1]; ++k) {
      const uint32_t pos = p->slot_end[p->inc_slot[k]]++;
      p->queries[pos] = static_cast<uint32_t>(i);
      p->inc_next[k] = pos + 1;
    }
  }
}

size_t SetSize(const Postings& p, size_t i) {
  return p.inc_begin[i + 1] - p.inc_begin[i];
}

/// Calls fn(j) for every later query j sharing a vertex with query i, once
/// per shared vertex.
template <typename Fn>
void ForEachLaterSharer(const Postings& p, size_t i, Fn&& fn) {
  for (size_t k = p.inc_begin[i]; k < p.inc_begin[i + 1]; ++k) {
    const uint32_t end = p.slot_end[p.inc_slot[k]];
    for (uint32_t pos = p.inc_next[k]; pos < end; ++pos) fn(p.queries[pos]);
  }
}

/// ScanCount row i: counts |Γ(i) ∩ Γ(j)| for every later j, then the
/// backward intersections of the j with a forward one, and writes µ(i, j).
/// The counters are left zeroed. Returns the number of pairs evaluated.
size_t ScanCountRow(size_t i, const Postings& fwd, const Postings& bwd,
                    RowCounters& rc, SimilarityMatrix* sim) {
  ForEachLaterSharer(fwd, i, [&](uint32_t j) {
    if (rc.fwd[j]++ == 0) rc.touched.push_back(j);
  });
  if (rc.touched.empty()) return 0;
  ForEachLaterSharer(bwd, i, [&](uint32_t j) {
    if (rc.fwd[j] != 0) ++rc.bwd[j];
  });
  const size_t fi = SetSize(fwd, i), bi = SetSize(bwd, i);
  for (uint32_t j : rc.touched) {
    // The same integer ratios as ExactOverlap, so the cells are identical.
    if (rc.bwd[j] != 0) {
      const double f = static_cast<double>(rc.fwd[j]) /
                       static_cast<double>(std::min(fi, SetSize(fwd, j)));
      const double b = static_cast<double>(rc.bwd[j]) /
                       static_cast<double>(std::min(bi, SetSize(bwd, j)));
      sim->Set(i, j, HarmonicMu(f, b));
    }
    rc.fwd[j] = 0;
    rc.bwd[j] = 0;
  }
  const size_t pairs = rc.touched.size();
  rc.touched.clear();
  return pairs;
}

/// All ScanCount rows. With a pool, rows are dealt round-robin to a few
/// blocks per thread (row i's work shrinks with i), one block per task,
/// each with its own counters. Returns the number of pairs evaluated.
uint64_t ScanCountRows(size_t n, ThreadPool* pool, SimilarityScratch* sc,
                       SimilarityMatrix* sim) {
  const size_t blocks =
      pool == nullptr ? 1 : std::min(n, 4 * (pool->num_workers() + 1));
  if (sc->rows.size() < blocks) sc->rows.resize(blocks);
  std::vector<uint64_t> block_pairs(blocks, 0);
  auto run_block = [&](size_t blk) {
    RowCounters& rc = sc->rows[blk];
    rc.fwd.assign(n, 0);
    rc.bwd.assign(n, 0);
    rc.touched.clear();
    for (size_t i = blk; i < n; i += blocks) {
      block_pairs[blk] +=
          ScanCountRow(i, sc->fwd_post, sc->bwd_post, rc, sim);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(blocks, run_block);
  } else {
    run_block(0);
  }
  uint64_t pairs = 0;
  for (uint64_t p : block_pairs) pairs += p;
  return pairs;
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
  // Working memory: the caller's recycled scratch, or a call-local one.
  SimilarityScratch local_scratch;
  SimilarityScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.route = SimilarityRoute::kScanCount;
  sc.pairs = 0;
  if (n < 2) return sim;

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

  const size_t nv = g.NumVertices();
  const size_t words = (nv + 63) / 64;
  bool use_sketch = mode == SimilarityMode::kSketch;
  if (!use_sketch) {
    // kExact falls back to the exact pair loop, kAuto to the cheaper pair
    // loop; ScanCount runs while its own cost stays within the fallback's.
    const RouteCosts costs = EstimateRouteCosts(index, n, words);
    use_sketch = mode == SimilarityMode::kAuto && costs.sketch < costs.exact;
    const double fallback = use_sketch ? costs.sketch : costs.exact;
    const uint64_t budget =
        fallback > costs.scan_fixed
            ? static_cast<uint64_t>(fallback - costs.scan_fixed)
            : 0;
    const size_t fwd_total = costs.total[0], bwd_total = costs.total[1];
    auto fwd_map = [&](size_t i) -> const VertexDistMap& {
      return index.FromSourceMap(i);
    };
    auto bwd_map = [&](size_t i) -> const VertexDistMap& {
      return index.ToTargetMap(i);
    };
    uint64_t bumps = 0;
    const bool sparse =
        budget > 0 &&
        std::max(fwd_total, bwd_total) < UINT32_MAX &&  // 32-bit positions
        MinBumps(fwd_total, nv) + MinBumps(bwd_total, nv) <= budget &&
        CountPostings(n, nv, fwd_total, fwd_map, budget, &sc, &sc.fwd_post,
                      &bumps) &&
        CountPostings(n, nv, bwd_total, bwd_map, budget, &sc, &sc.bwd_post,
                      &bumps);
    if (sparse) {
      FillPostings(n, &sc.fwd_post);
      FillPostings(n, &sc.bwd_post);
      sc.pairs = ScanCountRows(n, pool, &sc, &sim);
      return sim;
    }
  }
  sc.route = use_sketch ? SimilarityRoute::kPairSketch
                        : SimilarityRoute::kPairExact;
  sc.pairs = static_cast<uint64_t>(n) * (n - 1) / 2;

  // Exact mode walks a pair's smaller set while it is cheaper than the
  // bitsets' word count; sketch mode walks any set that fits in a sketch.
  const size_t probe_limit = use_sketch ? kSketchSize + 1 : words;
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

#include "oracle.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

constexpr uint8_t kFar = 255;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

std::string Describe(const OracleQuery& q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "q(%u,%u,%d)", q.s, q.t, q.k);
  return buf;
}

void BuildCsr(Vertex n, const std::vector<Edge>& edges, bool reverse,
              std::vector<uint64_t>* off, std::vector<Vertex>* adj) {
  off->assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++(*off)[(reverse ? e.second : e.first) + 1];
  for (Vertex v = 0; v < n; ++v) (*off)[v + 1] += (*off)[v];
  adj->resize(edges.size());
  std::vector<uint64_t> next(off->begin(), off->end() - 1);
  for (const Edge& e : edges) {
    const Vertex from = reverse ? e.second : e.first;
    (*adj)[next[from]++] = reverse ? e.first : e.second;
  }
  for (Vertex v = 0; v < n; ++v) {
    std::sort(adj->begin() + static_cast<int64_t>((*off)[v]),
              adj->begin() + static_cast<int64_t>((*off)[v + 1]));
  }
}

}  // namespace

OracleGraph::OracleGraph(Vertex num_vertices, std::vector<Edge> edges)
    : n_(num_vertices), edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  std::erase_if(edges_, [](const Edge& e) { return e.first == e.second; });
  BuildCsr(n_, edges_, false, &out_off_, &out_adj_);
  BuildCsr(n_, edges_, true, &in_off_, &in_adj_);
}

bool OracleGraph::HasEdge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_) return false;
  auto out = Out(u);
  return std::binary_search(out.begin(), out.end(), v);
}

uint64_t PathHash(std::span<const Vertex> path) {
  uint64_t h = 0x243f6a8885a308d3ULL ^ path.size();
  for (Vertex v : path) h = Mix(h ^ (v + 0x9e3779b97f4a7c15ULL));
  return Mix(h);
}

Oracle::Oracle(const OracleGraph& g)
    : g_(g), dist_to_t_(g.num_vertices(), kFar),
      on_path_(g.num_vertices(), 0) {}

OracleAnswer Oracle::Solve(const OracleQuery& q) {
  OracleAnswer out;
  if (q.s >= g_.num_vertices() || q.t >= g_.num_vertices() || q.s == q.t ||
      q.k < 1) {
    return out;
  }
  // Reverse BFS from t, capped at k hops: dist_to_t_[v] = d(v, t).
  for (Vertex v : touched_) dist_to_t_[v] = kFar;
  touched_.clear();
  dist_to_t_[q.t] = 0;
  touched_.push_back(q.t);
  for (size_t head = 0; head < touched_.size(); ++head) {
    const Vertex v = touched_[head];
    const int d = dist_to_t_[v];
    if (d >= q.k) continue;
    for (Vertex u : g_.In(v)) {
      if (dist_to_t_[u] != kFar) continue;
      dist_to_t_[u] = static_cast<uint8_t>(d + 1);
      touched_.push_back(u);
    }
  }
  if (dist_to_t_[q.s] == kFar) return out;
  path_.assign(1, q.s);
  on_path_[q.s] = 1;
  Dfs(q.s, 0, q.k, q.t, &out);
  on_path_[q.s] = 0;
  return out;
}

void Oracle::Dfs(Vertex u, int depth, int k, Vertex t, OracleAnswer* out) {
  if (u == t) {
    ++out->count;
    out->hash += PathHash(path_);
    return;
  }
  for (Vertex v : g_.Out(u)) {
    // v must still reach t within the hops left after taking (u, v).
    if (on_path_[v] || dist_to_t_[v] == kFar || dist_to_t_[v] > k - depth - 1) {
      continue;
    }
    on_path_[v] = 1;
    path_.push_back(v);
    Dfs(v, depth + 1, k, t, out);
    path_.pop_back();
    on_path_[v] = 0;
  }
}

std::string CheckAnswer(const OracleAnswer& expected, uint64_t count,
                        uint64_t hash, bool check_hash) {
  char buf[160];
  if (count != expected.count) {
    std::snprintf(buf, sizeof(buf), "count %llu, oracle %llu",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(expected.count));
    return buf;
  }
  if (check_hash && hash != expected.hash) {
    std::snprintf(buf, sizeof(buf), "path-set hash %016llx, oracle %016llx",
                  static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(expected.hash));
    return buf;
  }
  return "";
}

std::string CheckPath(const OracleGraph& g, const OracleQuery& q,
                      std::span<const Vertex> path) {
  if (path.empty() || path.front() != q.s) {
    return Describe(q) + ": path does not start at s";
  }
  if (path.back() != q.t) return Describe(q) + ": path does not end at t";
  if (path.size() - 1 > static_cast<size_t>(q.k)) {
    return Describe(q) + ": path longer than k";
  }
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!g.HasEdge(path[i], path[i + 1])) {
      return Describe(q) + ": path uses an edge absent at its epoch";
    }
  }
  // Paths have at most k + 1 <= 31 vertices: the quadratic scan is cheap.
  for (size_t i = 0; i < path.size(); ++i) {
    for (size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return Describe(q) + ": path repeats a vertex";
    }
  }
  return "";
}

std::string CheckNoDuplicates(const OracleQuery& q,
                              std::vector<uint64_t>* hashes) {
  std::sort(hashes->begin(), hashes->end());
  if (std::adjacent_find(hashes->begin(), hashes->end()) != hashes->end()) {
    return Describe(q) + ": path reported twice";
  }
  return "";
}

std::string CheckPaths(const OracleGraph& g, const OracleQuery& q,
                       const std::vector<std::vector<Vertex>>& paths) {
  std::vector<uint64_t> hashes;
  hashes.reserve(paths.size());
  for (const auto& p : paths) {
    std::string fault = CheckPath(g, q, p);
    if (!fault.empty()) return fault;
    hashes.push_back(PathHash(p));
  }
  return CheckNoDuplicates(q, &hashes);
}

std::string CheckEmitIdentity(uint64_t emitted, uint64_t sum_of_counts) {
  if (emitted == sum_of_counts) return "";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "emit.paths %llu != sum of counts %llu",
                static_cast<unsigned long long>(emitted),
                static_cast<unsigned long long>(sum_of_counts));
  return buf;
}

std::string CheckConservation(const ConservationCounts& c) {
  if (c.submitted != c.completed + c.failed + c.rejected) {
    return "submitted != completed + failed + rejected";
  }
  if (c.submitted != c.completed) return "not every submitted query completed";
  if (c.stalled != 0) return "stalled queries";
  if (c.dispatches != c.attempts_completed + c.attempts_failed +
                          c.attempts_cancelled + c.attempts_dropped +
                          c.attempts_in_flight) {
    return "dispatches do not reconcile with attempt outcomes";
  }
  if (c.attempts_in_flight != 0) return "attempts still in flight when idle";
  return "";
}

int SelfTest(std::vector<std::string>* failures) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 1 -> 2, 3 -> 0, 3 -> 4: the paths 0..3 of at
  // most 3 edges are 0-1-3, 0-2-3 and 0-1-2-3.
  OracleGraph g(5, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {1, 2}, {3, 0}, {3, 4}});
  Oracle oracle(g);
  const OracleQuery q{0, 3, 3};
  const OracleAnswer right = oracle.Solve(q);
  const std::vector<std::vector<Vertex>> good = {{0, 1, 3}, {0, 2, 3},
                                                 {0, 1, 2, 3}};
  uint64_t good_hash = 0;
  for (const auto& p : good) good_hash += PathHash(p);

  int rules = 0;
  // `fault` is a check's verdict; `want` is "" when the answer is right and
  // otherwise the text the rule under test must report.
  auto expect = [&](const std::string& fault, const std::string& want,
                    const char* what) {
    ++rules;
    const bool ok = want.empty() ? fault.empty()
                                 : fault.find(want) != std::string::npos;
    if (!ok) {
      failures->push_back(std::string("self-test: ") + what + ": got \"" +
                          fault + "\"");
    }
  };
  expect(right.count == 3 && right.hash == good_hash ? "" : "oracle wrong", "",
         "oracle answer on the 5-vertex graph");
  expect(CheckAnswer(right, 3, good_hash, true), "", "right answer");
  expect(CheckAnswer(right, 2, good_hash, true), "count", "a wrong count");
  expect(CheckAnswer(right, 3, good_hash + 1, true), "hash",
         "a wrong path-set hash");
  expect(CheckPaths(g, q, good), "", "right paths");
  auto with = [&](const OracleQuery& query, std::vector<Vertex> extra) {
    auto paths = good;
    paths.push_back(std::move(extra));
    return CheckPaths(g, query, paths);
  };
  expect(with(q, {1, 2, 3}), "start at s", "a path not starting at s");
  expect(with(q, {0, 1, 2}), "end at t", "a path not ending at t");
  expect(with(q, {0, 4, 3}), "absent", "a path over an absent edge");
  expect(with(OracleQuery{0, 3, 5}, {0, 1, 3, 0, 2, 3}), "repeats",
         "a path repeating a vertex");
  expect(with(q, {0, 1, 3}), "twice", "a duplicated path");
  expect(CheckPaths(g, OracleQuery{0, 3, 2}, {{0, 1, 2, 3}}), "longer",
         "a path longer than k");
  expect(CheckEmitIdentity(7, 7), "", "matching emit.paths");
  expect(CheckEmitIdentity(8, 7), "emit.paths", "a wrong emit.paths");
  ConservationCounts c;
  c.submitted = c.completed = 4;
  c.dispatches = c.attempts_completed = 5;
  expect(CheckConservation(c), "", "conserved counts");
  ConservationCounts lost = c;
  lost.completed = 3;
  expect(CheckConservation(lost), "submitted", "a lost query");
  ConservationCounts stalled = c;
  stalled.stalled = 1;
  expect(CheckConservation(stalled), "stalled", "a stalled query");
  ConservationCounts leak = c;
  leak.dispatches = 6;
  expect(CheckConservation(leak), "reconcile", "an unreconciled attempt");
  return rules;
}

}  // namespace perfbench

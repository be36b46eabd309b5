#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Independent correctness oracle of the benchmark. It shares no code with
// the library's enumeration: its own adjacency lists over the benchmark's
// own edge list, a reverse BFS for the distance-to-target bound, and a
// plain hop-bounded DFS. The check functions return an empty string when
// an answer is accepted and a description of the first fault otherwise;
// SelfTest feeds each of them a deliberately wrong answer.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Vertex = uint32_t;
using Edge = std::pair<Vertex, Vertex>;

/// One (s, t, k) query as the oracle sees it.
struct OracleQuery {
  Vertex s = 0;
  Vertex t = 0;
  int k = 0;
};

/// Sorted, deduplicated out- and in-adjacency over an edge list.
class OracleGraph {
 public:
  OracleGraph(Vertex num_vertices, std::vector<Edge> edges);

  Vertex num_vertices() const { return n_; }
  const std::vector<Edge>& edges() const { return edges_; }
  std::span<const Vertex> Out(Vertex v) const {
    return {out_adj_.data() + out_off_[v], out_adj_.data() + out_off_[v + 1]};
  }
  std::span<const Vertex> In(Vertex v) const {
    return {in_adj_.data() + in_off_[v], in_adj_.data() + in_off_[v + 1]};
  }
  bool HasEdge(Vertex u, Vertex v) const;

 private:
  Vertex n_;
  std::vector<Edge> edges_;  ///< sorted by (u, v), no duplicates
  std::vector<uint64_t> out_off_, in_off_;
  std::vector<Vertex> out_adj_, in_adj_;
};

/// Digest of one path (every vertex, in order). Summed over a query's
/// paths it gives an order-independent hash of the path set.
uint64_t PathHash(std::span<const Vertex> path);

/// Count and order-independent hash (sum of PathHash) of a query's paths.
struct OracleAnswer {
  uint64_t count = 0;
  uint64_t hash = 0;
};

/// Enumerates every simple s-t path of at most k edges on `g`.
class Oracle {
 public:
  explicit Oracle(const OracleGraph& g);
  OracleAnswer Solve(const OracleQuery& q);

 private:
  void Dfs(Vertex u, int depth, int k, Vertex t, OracleAnswer* out);

  const OracleGraph& g_;
  std::vector<uint8_t> dist_to_t_;  ///< 255 = farther than k
  std::vector<Vertex> touched_;
  std::vector<uint8_t> on_path_;
  std::vector<Vertex> path_;
};

/// Compares an answer with the oracle's. `check_hash` is false for
/// count-only answers.
std::string CheckAnswer(const OracleAnswer& expected, uint64_t count,
                        uint64_t hash, bool check_hash);

/// Properties of one path of a query's answer: it starts at s, ends at t,
/// has at most k edges, uses only edges of `g` (the graph at the query's
/// epoch) and repeats no vertex.
std::string CheckPath(const OracleGraph& g, const OracleQuery& q,
                      std::span<const Vertex> path);

/// No path appears twice in one query's answer, judged on the PathHash of
/// each path (`hashes` is reordered).
std::string CheckNoDuplicates(const OracleQuery& q,
                              std::vector<uint64_t>* hashes);

/// CheckPath on every path, then CheckNoDuplicates.
std::string CheckPaths(const OracleGraph& g, const OracleQuery& q,
                       const std::vector<std::vector<Vertex>>& paths);

/// emit.paths must equal the sum of the per-query counts.
std::string CheckEmitIdentity(uint64_t emitted, uint64_t sum_of_counts);

/// Conservation laws of the sharded service once it is idle.
struct ConservationCounts {
  uint64_t submitted = 0, completed = 0, failed = 0, rejected = 0;
  uint64_t stalled = 0;
  uint64_t dispatches = 0, attempts_completed = 0, attempts_failed = 0;
  uint64_t attempts_cancelled = 0, attempts_dropped = 0;
  uint64_t attempts_in_flight = 0;
};
std::string CheckConservation(const ConservationCounts& c);

/// Runs every check on a small graph, first with the right answer (must
/// pass) and then with one deliberately wrong answer per rule (must be
/// rejected). Returns the number of rules exercised; `failures` receives
/// one line per check that misbehaved.
int SelfTest(std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

#ifndef HCPATH_GRAPH_GRAPH_H_
#define HCPATH_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/logging.h"

namespace hcpath {

class DeltaOverlay;

/// Vertex identifier. Graphs are limited to 2^32 - 2 vertices, which covers
/// every dataset in the paper while halving index memory vs 64-bit ids.
using VertexId = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/// Direction of traversal: forward uses out-edges of G, backward uses
/// out-edges of the reverse graph Gr (= in-edges of G).
enum class Direction { kForward, kBackward };

inline Direction Reverse(Direction d) {
  return d == Direction::kForward ? Direction::kBackward
                                  : Direction::kForward;
}

/// Immutable unweighted directed graph in CSR form, storing both the
/// out-adjacency (G) and in-adjacency (Gr). Neighbor lists are sorted by
/// vertex id, enabling O(log d) HasEdge and deterministic iteration.
///
/// Construct via GraphBuilder or one of the generators. A graph object is
/// immutable once built, but the *variable* holding it may be reassigned;
/// consumers that cache state derived from a graph (the resolved kernel in
/// BatchPathEnumerator, the endpoint-distance cache) key on version() to
/// detect that the object they were built against has been replaced.
///
/// Storage modes (all indistinguishable through the accessors — every
/// reader goes through the same raw-pointer views):
///  * owned — the CSR arrays live in this object's vectors (GraphBuilder,
///    generators, MergeRebuild);
///  * external — the arrays are read-only views into storage pinned by a
///    shared_ptr, e.g. an mmapped snapshot file (graph_snapshot_io,
///    docs/PERSIST.md): zero-copy, pages fault in on demand, and copies of
///    the Graph share the mapping;
///  * overlay — reads consult a DeltaOverlay's patch tables and fall back
///    to its flat base CSR (docs/DYNAMIC.md).
class Graph {
 public:
  Graph() : version_(NextVersion()) {}

  /// Takes ownership of prebuilt CSR arrays. `out_offsets`/`in_offsets`
  /// have n+1 entries; adjacency arrays are sorted per vertex.
  Graph(std::vector<uint64_t> out_offsets, std::vector<VertexId> out_adj,
        std::vector<uint64_t> in_offsets, std::vector<VertexId> in_adj);

  /// External-storage mode: wraps CSR arrays that live outside this object
  /// — typically sections of an mmapped snapshot — without copying them.
  /// `storage` pins whatever owns the bytes (the mapped region) for the
  /// life of this graph and every copy of it; the spans must stay valid
  /// exactly as long as `storage` is alive. The caller has already
  /// validated the arrays (graph_snapshot_io does); the checks here are
  /// the same structural invariants the owned constructor asserts.
  Graph(std::shared_ptr<const void> storage,
        std::span<const uint64_t> out_offsets,
        std::span<const VertexId> out_adj,
        std::span<const uint64_t> in_offsets,
        std::span<const VertexId> in_adj);

  /// Wraps a delta overlay (docs/DYNAMIC.md) as a graph snapshot: reads
  /// consult the overlay's patch tables and fall back to its flat base
  /// CSR. The flat-CSR members stay empty; every accessor branches on
  /// `overlay_` — one well-predicted null check on the flat path, so
  /// graphs without an overlay read exactly as before.
  explicit Graph(std::shared_ptr<const DeltaOverlay> overlay);

  // Copies and moves rebind the raw-pointer views: an owned copy points
  // into its own vectors, an external copy shares the pinned storage, and
  // a moved-from graph is left empty-but-valid. version_ is carried along
  // (copies have identical CSR content, so sharing the version is
  // correct).
  Graph(const Graph& other) { CopyFrom(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Graph(Graph&& other) noexcept { MoveFrom(std::move(other)); }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Number of vertices.
  VertexId NumVertices() const {
    if (overlay_ != nullptr) [[unlikely]] return OverlayNumVertices();
    return n_;
  }
  /// Number of directed edges.
  uint64_t NumEdges() const {
    if (overlay_ != nullptr) [[unlikely]] return OverlayNumEdges();
    return m_;
  }

  /// Out-neighbors of v in G (sorted).
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    HCPATH_DCHECK(v < NumVertices());
    if (overlay_ != nullptr) [[unlikely]] {
      return OverlayNeighbors(v, Direction::kForward);
    }
    return {out_adj_p_ + out_offsets_p_[v], out_adj_p_ + out_offsets_p_[v + 1]};
  }

  /// In-neighbors of v in G (sorted) == out-neighbors of v in Gr.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    HCPATH_DCHECK(v < NumVertices());
    if (overlay_ != nullptr) [[unlikely]] {
      return OverlayNeighbors(v, Direction::kBackward);
    }
    return {in_adj_p_ + in_offsets_p_[v], in_adj_p_ + in_offsets_p_[v + 1]};
  }

  /// Neighbors in the requested traversal direction.
  std::span<const VertexId> Neighbors(VertexId v, Direction d) const {
    return d == Direction::kForward ? OutNeighbors(v) : InNeighbors(v);
  }

  uint64_t OutDegree(VertexId v) const {
    if (overlay_ != nullptr) [[unlikely]] {
      return OverlayNeighbors(v, Direction::kForward).size();
    }
    return out_offsets_p_[v + 1] - out_offsets_p_[v];
  }
  uint64_t InDegree(VertexId v) const {
    if (overlay_ != nullptr) [[unlikely]] {
      return OverlayNeighbors(v, Direction::kBackward).size();
    }
    return in_offsets_p_[v + 1] - in_offsets_p_[v];
  }
  uint64_t Degree(VertexId v, Direction d) const {
    return d == Direction::kForward ? OutDegree(v) : InDegree(v);
  }

  /// True iff the directed edge (u, v) exists; O(log outdeg(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Stage-1 companion to PrefetchNeighbors: pulls v's offset line (flat)
  /// or patch-table slot (overlay) into cache so the stage-2 hint's
  /// dependent load doesn't stall; correctness never depends on it.
  void PrefetchOffsets(VertexId v, Direction d) const {
    if (overlay_ != nullptr) [[unlikely]] {
      OverlayPrefetchSlot(v, d);
      return;
    }
    if (d == Direction::kForward) {
      __builtin_prefetch(&out_offsets_p_[v]);
    } else {
      __builtin_prefetch(&in_offsets_p_[v]);
    }
  }

  /// Hints the adjacency block of v into cache ahead of the DFS expanding
  /// it (core/search.cc); correctness never depends on it.
  void PrefetchNeighbors(VertexId v, Direction d) const {
    if (overlay_ != nullptr) [[unlikely]] {
      __builtin_prefetch(OverlayNeighbors(v, d).data());
      return;
    }
    if (d == Direction::kForward) {
      __builtin_prefetch(out_adj_p_ + out_offsets_p_[v]);
    } else {
      __builtin_prefetch(in_adj_p_ + in_offsets_p_[v]);
    }
  }

  /// All edges as (src, dst) pairs, ordered by src then dst.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Approximate resident memory of the CSR arrays. For an overlay
  /// snapshot this is the patch tables only — the shared flat base is
  /// accounted by the snapshot that owns it. External (mmapped) graphs
  /// report the mapped array bytes; actual residency is whatever the
  /// page cache has faulted in.
  uint64_t MemoryBytes() const {
    if (overlay_ != nullptr) [[unlikely]] return OverlayMemoryBytes();
    if (out_offsets_p_ == nullptr) return 0;
    return 2 * (static_cast<uint64_t>(n_) + 1) * sizeof(uint64_t) +
           2 * m_ * sizeof(VertexId);
  }

  /// Flat-CSR array views: offsets have NumVertices()+1 entries, adjacency
  /// NumEdges(). Empty on a default-constructed graph; must not be called
  /// on an overlay snapshot (whose arrays are virtual — fold it first).
  /// These exist for the serialization layer (graph_snapshot_io) and
  /// structural-equality tests; engines read through the accessors above.
  std::span<const uint64_t> OutOffsetsView() const {
    HCPATH_DCHECK(overlay_ == nullptr);
    if (out_offsets_p_ == nullptr) return {};
    return {out_offsets_p_, static_cast<size_t>(n_) + 1};
  }
  std::span<const VertexId> OutAdjView() const {
    HCPATH_DCHECK(overlay_ == nullptr);
    return {out_adj_p_, m_};
  }
  std::span<const uint64_t> InOffsetsView() const {
    HCPATH_DCHECK(overlay_ == nullptr);
    if (in_offsets_p_ == nullptr) return {};
    return {in_offsets_p_, static_cast<size_t>(n_) + 1};
  }
  std::span<const VertexId> InAdjView() const {
    HCPATH_DCHECK(overlay_ == nullptr);
    return {in_adj_p_, m_};
  }

  /// True when the CSR arrays live in external pinned storage (an mmapped
  /// snapshot) rather than this object's vectors. Readers never need
  /// this; tests assert the zero-copy path actually engaged.
  bool uses_external_storage() const { return storage_ != nullptr; }

  /// Non-null iff this graph is a delta-overlay snapshot (GraphStore's
  /// O(touched) update path). Readers never need this — every accessor
  /// reads through the overlay transparently — but GraphStore keys its
  /// extend-vs-compact decision on it.
  const DeltaOverlay* overlay() const { return overlay_.get(); }

  /// Process-unique identity of this graph's content, assigned at
  /// construction from a global counter and carried along by copy/move
  /// (copies have identical CSR content, so sharing the version is
  /// correct). Reassigning a Graph variable from a freshly built graph
  /// changes its version, which is how derived-state caches detect that
  /// the object they were built against has been replaced.
  uint64_t version() const { return version_; }

 private:
  static uint64_t NextVersion();

  /// Re-derives the raw-pointer views after construction, copy, or move:
  /// owned mode points them into this object's vectors; external and
  /// overlay modes keep (or don't need) the pointers already set.
  void Rebind();
  void CopyFrom(const Graph& other);
  void MoveFrom(Graph&& other) noexcept;

  // Overlay-mode slow paths, out of line so graph.h needs only a forward
  // declaration of DeltaOverlay and the flat path stays fully inline.
  std::span<const VertexId> OverlayNeighbors(VertexId v, Direction d) const;
  void OverlayPrefetchSlot(VertexId v, Direction d) const;
  VertexId OverlayNumVertices() const;
  uint64_t OverlayNumEdges() const;
  uint64_t OverlayMemoryBytes() const;

  // Owned-mode backing arrays; empty in external and overlay modes.
  std::vector<uint64_t> out_offsets_;
  std::vector<VertexId> out_adj_;
  std::vector<uint64_t> in_offsets_;
  std::vector<VertexId> in_adj_;
  std::shared_ptr<const DeltaOverlay> overlay_;  ///< null on flat graphs
  /// Pins external array storage (the mmapped snapshot region); null in
  /// owned and overlay modes.
  std::shared_ptr<const void> storage_;
  // Unified read views every flat accessor goes through — identical cost
  // for owned and external storage. Null/0 on overlay and empty graphs.
  const uint64_t* out_offsets_p_ = nullptr;
  const VertexId* out_adj_p_ = nullptr;
  const uint64_t* in_offsets_p_ = nullptr;
  const VertexId* in_adj_p_ = nullptr;
  VertexId n_ = 0;
  uint64_t m_ = 0;
  uint64_t version_ = 0;
};

}  // namespace hcpath

#endif  // HCPATH_GRAPH_GRAPH_H_

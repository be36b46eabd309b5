#ifndef HCPATH_GRAPH_GRAPH_SNAPSHOT_IO_H_
#define HCPATH_GRAPH_GRAPH_SNAPSHOT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace hcpath {

/// Binary CSR snapshot format (docs/PERSIST.md): a Graph's four CSR
/// arrays serialized verbatim behind a versioned, checksummed header, so
/// loading is a validation pass over an mmap instead of a rebuild —
/// `LoadGraphSnapshot` returns a Graph in external-storage mode whose
/// accessors read the mapped pages directly (zero copy).
///
/// Layout (all fields native-endian; an endian marker in the header
/// rejects cross-endian files):
///
///   offset  size  field
///        0     8  magic            "HCPSNAP1" little-endian u64
///        8     4  format version   (currently 1)
///       12     4  flags            (reserved, must be 0)
///       16     8  endian marker    0x0102030405060708
///       24     8  n  (vertices)
///       32     8  m  (directed edges)
///       40     8  epoch            (GraphStore epoch at save; 0 if none)
///       48     8  payload bytes    (sections + padding, excl. header pad)
///       56     8  reserved         (must be 0)
///       64     8  payload checksum (chained over the 4 sections)
///       72     8  header checksum  (Checksum64 over bytes [0, 72))
///      128   ...  sections, each 64-byte aligned, zero-padded between:
///                   out_offsets  8*(n+1) bytes
///                   out_adj      4*m
///                   in_offsets   8*(n+1)
///                   in_adj       4*m
///
/// The payload checksum chains the four section checksums (padding
/// excluded), which makes it equal to GraphContentChecksum of the loaded
/// graph — the content identity the cache spill/restore layer
/// (index/cache_persist.h) revalidates against.

/// Field offsets within the header, exported so corruption tests can
/// craft precise mutations without duplicating the layout.
inline constexpr size_t kSnapshotMagicOffset = 0;
inline constexpr size_t kSnapshotVersionOffset = 8;
inline constexpr size_t kSnapshotEndianOffset = 16;
inline constexpr size_t kSnapshotNumVerticesOffset = 24;
inline constexpr size_t kSnapshotNumEdgesOffset = 32;
inline constexpr size_t kSnapshotEpochOffset = 40;
inline constexpr size_t kSnapshotPayloadBytesOffset = 48;
inline constexpr size_t kSnapshotPayloadChecksumOffset = 64;
inline constexpr size_t kSnapshotHeaderChecksumOffset = 72;
/// First section starts here; sections are 64-byte aligned.
inline constexpr size_t kSnapshotHeaderBytes = 128;

/// 64-bit chained checksum (murmur-style word mix + avalanche finish).
/// Chainable: feed one call's result as the next call's seed. Not
/// cryptographic — it detects corruption, not adversaries.
uint64_t Checksum64(const void* data, size_t len, uint64_t seed = 0);

/// Content identity of a graph's CSR arrays: the four section checksums
/// chained in file order. Equal to the payload checksum of any snapshot
/// of this graph, regardless of how the graph is stored (owned, mmapped,
/// or overlay — overlays are folded through the accessors). Two graphs
/// with identical edge sets always agree.
uint64_t GraphContentChecksum(const Graph& g);

struct GraphSnapshotInfo {
  uint64_t epoch = 0;             ///< store epoch recorded at save time
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t payload_checksum = 0;  ///< == GraphContentChecksum of the graph
  uint64_t file_bytes = 0;
};

struct GraphSnapshotLoadOptions {
  /// Verify the payload on load: one streaming pass over the mapped
  /// sections checking the payload checksum, offset monotonicity, and
  /// adjacency-id bounds before any engine sees the graph. Costs one
  /// sequential read of the file (still no parse/rebuild). `false` is
  /// the O(1) trusted open — header checks only, pages fault lazily —
  /// for snapshots this process just wrote or storage with its own
  /// integrity layer.
  bool verify = true;
};

/// Writes `g` as a snapshot at `path` (created or truncated). Overlay
/// graphs are folded to a flat CSR first (GraphBuilder::MergeRebuild), so
/// a snapshot never contains patch tables. `epoch` is recorded verbatim
/// for GraphStore checkpoints; plain graphs pass 0.
Status SaveGraphSnapshot(const Graph& g, const std::string& path,
                         uint64_t epoch = 0,
                         GraphSnapshotInfo* info = nullptr);

/// Opens, validates, and mmaps the snapshot at `path`, returning a Graph
/// in external-storage mode that reads the mapping in place. The mapping
/// is pinned by the returned Graph and every copy of it, and unmapped
/// when the last copy dies; deleting the file while mapped is safe on
/// POSIX (the inode outlives the unlink). All validation failures are
/// clean Statuses — no allocation is sized from header fields before
/// they are checked against the real file size.
StatusOr<Graph> LoadGraphSnapshot(const std::string& path,
                                  const GraphSnapshotLoadOptions& options = {},
                                  GraphSnapshotInfo* info = nullptr);

/// Reads and validates only the header — cheap way to get the epoch and
/// dimensions of a snapshot without mapping its payload.
StatusOr<GraphSnapshotInfo> ReadGraphSnapshotInfo(const std::string& path);

}  // namespace hcpath

#endif  // HCPATH_GRAPH_GRAPH_SNAPSHOT_IO_H_

// Binary serialization of InvertedIndex: the v6 format ("FTSIDX6\0"), the
// only one written or read (layout in docs/index_format.md).
//
// An 8-byte magic, varint-coded sections (statistics, per-node scalars,
// dictionary), one block list per token plus IL_ANY, an optional
// pair-index section, and a trailing FNV-1a 64 hash. Each list is the
// BlockPostingList skip directory — per block: max_node, byte_offset,
// entry_count, FNV-1a32 payload checksum, max_tf, encoding tag — followed
// by its payload bytes verbatim. The trailer hash covers only the header
// and directory bytes, never a payload, which is what makes lazy loading
// sound: an mmap load verifies everything it reads in O(header) time, and
// each block's checksum and structure are verified on its first decode
// (first-touch validation, memoized per block). The pair section holds the
// auxiliary (frequent-term, other-term) lists of index/pair_index.h in the
// same list layout; an index without a pair index writes it empty.
//
// Files of the retired v1-v5 formats fail closed with Corruption naming
// their version; they must be rebuilt from the source documents. Loaded
// block lists are the index's only representation, viewing their payload
// bytes out of one shared IndexSource (heap buffer or mmap'd file region)
// instead of holding per-list copies.

#ifndef FTS_INDEX_INDEX_IO_H_
#define FTS_INDEX_INDEX_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "index/index_snapshot.h"
#include "index/inverted_index.h"

namespace fts {

/// How LoadIndexFromFile materializes the file.
struct LoadOptions {
  enum class Mode {
    /// Read the whole file into a heap buffer and validate every block up
    /// front. Always available; the only mode for non-file inputs.
    kEager,
    /// mmap the file read-only and decode blocks straight from the
    /// mapping. The load runs in O(header) time; each block is validated
    /// on its first decode instead. The mapping is advised
    /// MADV_SEQUENTIAL for the load-time parse and MADV_RANDOM for the
    /// block-seek serving phase that follows.
    kMmap,
  };
  Mode mode = Mode::kEager;
  /// Opt-in warm-up for kMmap: after a successful load, fault every page
  /// of the mapping into the page cache (MADV_WILLNEED + a synchronous
  /// touch of each page) so cold-start IO is paid once at load time
  /// instead of by the first queries to land in each block. Trades load
  /// latency (and resident page-cache footprint) for first-query latency —
  /// see BM_ColdFirstQuery's prefault mode. Ignored for kEager, which
  /// reads the whole file anyway.
  bool prefault = false;
};

/// Serializes `index` into `out` (replacing its contents).
void SaveIndexToString(const InvertedIndex& index, std::string* out);

/// Deserializes an index previously produced by SaveIndexToString. The
/// index copies `data` into an owned heap buffer once and views posting
/// payloads out of it.
Status LoadIndexFromString(const std::string& data, InvertedIndex* out);

/// Writes the serialized index to `path` (atomic rename not attempted; see
/// docs/index_format.md for the write-then-rename recommendation when the
/// file may be mmap-loaded concurrently).
Status SaveIndexToFile(const InvertedIndex& index, const std::string& path);

/// Reads and deserializes an index from `path`. Returns IOError when the
/// file cannot be opened or read at all, and Corruption when it opens but
/// is not a parseable index — including files smaller than the fixed
/// envelope (magic + trailer), which are rejected with a distinct message
/// before any section parsing runs, and files of a retired format version.
///
/// Deprecated shim for new read-path code: prefer LoadSnapshotFromFile,
/// which returns the owned one-segment IndexSnapshot the snapshot entry
/// points (Searcher, SearchService) consume directly. This variant
/// survives for callers managing index lifetime themselves.
Status LoadIndexFromFile(const std::string& path, InvertedIndex* out,
                         const LoadOptions& options = {});

/// Loads `path` (same `options` semantics as LoadIndexFromFile)
/// and wraps it as an owned one-segment IndexSnapshot — the generation a
/// Searcher or SearchService serves directly. The snapshot owns the index;
/// the last holder (snapshot or draining query) frees it.
StatusOr<std::shared_ptr<const IndexSnapshot>> LoadSnapshotFromFile(
    const std::string& path, const LoadOptions& options = {});

}  // namespace fts

#endif  // FTS_INDEX_INDEX_IO_H_

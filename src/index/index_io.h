// Binary serialization of InvertedIndex: the v7 format ("FTSIDX7\0"), the
// only one written or read (layout in docs/index_format.md).
//
// An 8-byte magic, varint-coded sections (statistics, per-node scalars,
// dictionary), one block list per token plus IL_ANY, an optional
// pair-index section, and a trailing CRC32C (common/crc32c.h) in a fixed64.
// Each list is the BlockPostingList skip directory — per block: max_node,
// byte_offset, entry_count, CRC32C payload checksum, max_tf, encoding tag —
// followed by its payload bytes verbatim. The trailer covers only the header
// and directory bytes, never a payload, which is what makes lazy loading
// sound: a load verifies everything it parses — header, statistics,
// dictionary, directories — and no payload byte, and each block's
// checksum, structure and position framing are verified on its first
// decode (first-touch validation, memoized per block). That is the one
// policy for every loaded block, whether the file was read into a heap
// buffer or mapped; a malformed block fails the query, merge or stats
// pass that first decodes it with Corruption, and the loaded index keeps
// serving every other block. The pair section holds the auxiliary
// (frequent-term, other-term) lists of index/pair_index.h in the same list
// layout; their records are checked where a routed query reads them
// (eval/pair_plan.cc). An index without a pair index writes the section
// empty.
//
// Files of the retired v1-v6 formats fail closed with Corruption naming
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

/// Where LoadIndexFromFile puts the file's bytes. The mode chooses only
/// that: either way the load parses everything but the block payloads, and
/// each block is validated on its first decode.
struct LoadOptions {
  enum class Mode {
    /// Read the whole file into one heap buffer. Always available; the
    /// only mode for non-file inputs.
    kEager,
    /// mmap the file read-only and decode blocks straight from the
    /// mapping, so the load runs in O(header) time and untouched blocks
    /// never become resident. The mapping is advised MADV_SEQUENTIAL for
    /// the load-time parse and MADV_RANDOM for the block-seek serving
    /// phase that follows.
    kMmap,
  };
  Mode mode = Mode::kEager;
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
/// The load primitive: LoadSnapshotFromFile wraps it to return the owned
/// one-segment IndexSnapshot that Searcher and SearchService consume; call
/// it directly to manage the index's lifetime yourself.
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

// Per-segment delete bitmap (the "tombstones" of the segment architecture,
// docs/ingestion.md).
//
// A TombstoneSet marks local node ids of one immutable segment as deleted.
// Deletes never rewrite a sealed segment: the writer publishes a new
// generation whose snapshot carries an updated TombstoneSet, and cursors
// filter tombstoned entries at iteration time (BlockListCursor skips them
// before the engines ever see the node). A set is mutable only
// while the writer assembles the next generation; once referenced by a
// published IndexSnapshot it is immutable and may be read from any number
// of query threads concurrently.

#ifndef FTS_INDEX_TOMBSTONE_SET_H_
#define FTS_INDEX_TOMBSTONE_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/document.h"

namespace fts {

/// Bitmap over one segment's local node-id space.
class TombstoneSet {
 public:
  TombstoneSet() = default;
  explicit TombstoneSet(size_t num_nodes)
      : num_nodes_(num_nodes), bits_((num_nodes + 63) / 64, 0) {}

  /// Marks local node `n` deleted; idempotent. `n` must be < num_nodes().
  void MarkDeleted(NodeId n) {
    uint64_t& word = bits_[n >> 6];
    const uint64_t mask = uint64_t{1} << (n & 63);
    if ((word & mask) == 0) {
      word |= mask;
      ++deleted_count_;
    }
  }

  /// True when local node `n` is tombstoned. Hot path: called per posting
  /// entry by filtering cursors.
  bool Contains(NodeId n) const {
    return (bits_[n >> 6] >> (n & 63)) & 1;
  }

  size_t num_nodes() const { return num_nodes_; }
  size_t deleted_count() const { return deleted_count_; }
  bool empty() const { return deleted_count_ == 0; }

 private:
  size_t num_nodes_ = 0;
  size_t deleted_count_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace fts

#endif  // FTS_INDEX_TOMBSTONE_SET_H_

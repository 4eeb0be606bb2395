// The run table: each node's sentence and paragraph, stored once per node
// instead of once per position (index format v8, docs/index_format.md).
//
// The paper's positions are token offsets (Section 2.1); sentence and
// paragraph are the "more expressive positions" only the structural
// predicates (samepara, samesentence and their negations) read. Offsets
// are strictly increasing within a node (Corpus enforces it), so a
// position's (sentence, paragraph) is a function of (node, offset): the
// table records, per node, one run per change of (sentence, paragraph) —
// the offset of the change and the new sentence and paragraph — and the
// posting lists store offsets alone.
//
// Layout (the bytes a save writes and a load views in place):
//
//   directory  (num_nodes + 1) little-endian fixed32 byte offsets into the
//              records; node n's runs are records[dir[n], dir[n + 1])
//   records    per run three varint32s: the offset, sentence and
//              paragraph, each as the wrap-around difference from the
//              node's previous run (from 0 for its first run)
//
// A node's first run starts at its first position's offset; a node with no
// position has no run. A loaded table is validated once, at load
// (FromBytes): the directory must be monotone and end at the records' end,
// every node's runs must parse exactly and their offsets strictly
// increase. Fill is then trusted.

#ifndef FTS_INDEX_RUN_TABLE_H_
#define FTS_INDEX_RUN_TABLE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "text/document.h"

namespace fts {

class RunTable {
 public:
  /// An empty table: no node, no run.
  RunTable() = default;
  // Move-only: bytes_ may view owned_, which a move keeps in place.
  RunTable(RunTable&&) noexcept = default;
  RunTable& operator=(RunTable&&) noexcept = default;

  /// A table over `bytes` (the layout above) for `num_nodes` nodes,
  /// validated in full; the table views `bytes`, which must outlive it.
  /// Corruption when any check above fails.
  static StatusOr<RunTable> FromBytes(std::string_view bytes, uint64_t num_nodes);

  /// Appends the run records of one node's positions (sorted by strictly
  /// increasing offset) to `out`.
  static void EncodeRuns(std::span<const PositionInfo> positions,
                         std::vector<uint8_t>* out);

  size_t num_nodes() const { return num_nodes_; }

  /// The serialized table, as a save writes it.
  std::string_view bytes() const { return bytes_; }

  /// Node `node`'s run records (EncodeRuns' bytes).
  std::string_view NodeRuns(NodeId node) const;

  /// Sets the sentence and paragraph of each of `positions`, which belong
  /// to node `node` and are sorted by offset, from the node's runs: each
  /// gets the run that starts at or before its offset, (0, 0) before the
  /// first. A node the table does not cover gets (0, 0) everywhere.
  void Fill(NodeId node, std::span<PositionInfo> positions) const;

  /// Heap bytes the table owns (a loaded table views its file's bytes).
  size_t MemoryUsage() const { return owned_.capacity(); }

 private:
  friend class RunTableWriter;

  uint32_t Dir(size_t i) const;

  std::vector<uint8_t> owned_;  // a written table's bytes
  std::string_view bytes_;      // owned_, or the loaded bytes
  size_t num_nodes_ = 0;
};

/// Assembles a table of a known number of nodes, node by node in node
/// order, in the buffer the finished table keeps.
class RunTableWriter {
 public:
  /// A writer for `nodes` nodes holding about `record_bytes` bytes of runs.
  RunTableWriter(size_t nodes, size_t record_bytes);

  /// Appends the next node, whose run records (EncodeRuns' bytes, or
  /// another table's NodeRuns) are `runs`.
  void AddNode(std::string_view runs);

  /// The finished table, once every node is added; the writer is left
  /// empty.
  RunTable Finish();

 private:
  std::vector<uint8_t> bytes_;  // the directory, then the records so far
  size_t nodes_ = 0;
  size_t added_ = 0;
};

}  // namespace fts

#endif  // FTS_INDEX_RUN_TABLE_H_

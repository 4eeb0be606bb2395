// Core value types of the full-text model (paper Section 2.1):
//
//   N : context nodes    -> NodeId
//   P : positions        -> PositionInfo (token offset + sentence/paragraph)
//   T : tokens           -> TokenId into the corpus dictionary
//
// The paper models Positions : N -> 2^P and Token : P -> T. We realize a
// context node as a TokenizedDocument: the i-th token occupies offset i, and
// each position additionally records its sentence and paragraph ordinal so
// that structural predicates (samepara, samesentence) are expressible, as
// Section 2.1.1 anticipates ("more expressive positions ... will enable more
// sophisticated predicates").

#ifndef FTS_TEXT_DOCUMENT_H_
#define FTS_TEXT_DOCUMENT_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace fts {

/// Identifier of a context node (document, tuple, or XML element).
using NodeId = uint32_t;

/// Identifier of a token in the corpus dictionary.
using TokenId = uint32_t;

/// Sentinel NodeId meaning "no node" / end of stream.
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel TokenId for tokens absent from a dictionary.
inline constexpr TokenId kInvalidToken = std::numeric_limits<TokenId>::max();

/// A position within a context node. `offset` is the 0-based token ordinal
/// (the "(n)" annotations in the paper's Figure 1); `sentence` and
/// `paragraph` are 0-based structural ordinals used by samesentence /
/// samepara predicates. Ordering of positions is ordering of offsets.
/// Offsets strictly increase within a node, so sentence and paragraph are
/// a function of (node, offset): the index stores them once per node
/// (index/run_table.h), and positions read from it carry them only for
/// plans holding a predicate that reads them
/// (PositionPredicate::reads_structure); elsewhere they read 0.
struct PositionInfo {
  uint32_t offset = 0;
  uint32_t sentence = 0;
  uint32_t paragraph = 0;

  friend bool operator==(const PositionInfo&, const PositionInfo&) = default;
  friend auto operator<=>(const PositionInfo& a, const PositionInfo& b) {
    return a.offset <=> b.offset;
  }
};

/// Sentinel offset used by cursor APIs to mean "past the end".
inline constexpr uint32_t kInvalidOffset = std::numeric_limits<uint32_t>::max();

/// One context node after tokenization: parallel arrays of token ids and
/// their positions. tokens[i] is the token at positions[i] (and
/// positions[i].offset == i by construction).
struct TokenizedDocument {
  std::vector<TokenId> tokens;
  std::vector<PositionInfo> positions;

  size_t size() const { return tokens.size(); }
  bool empty() const { return tokens.empty(); }
};

}  // namespace fts

#endif  // FTS_TEXT_DOCUMENT_H_

// Text tokenization with sentence and paragraph tracking.
//
// The tokenizer turns raw text into the (token, position) stream of the
// full-text model. Tokens are maximal runs of alphanumeric characters,
// case-folded to lower case. Sentence boundaries are '.', '!', '?';
// paragraph boundaries are blank lines. Both are recorded in the emitted
// PositionInfo so structural predicates can be evaluated later.

#ifndef FTS_TEXT_TOKENIZER_H_
#define FTS_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/document.h"

namespace fts {

/// A single token occurrence produced by the tokenizer.
struct RawToken {
  std::string text;
  PositionInfo position;
};

/// Splits text into tokens with sentence/paragraph-annotated positions.
/// Stateless and reusable across documents; not thread-hostile (const calls
/// are safe concurrently).
class Tokenizer {
 public:
  /// Tokenizes `text`. Offsets are consecutive from 0; sentence and
  /// paragraph ordinals increase at boundary characters.
  std::vector<RawToken> Tokenize(std::string_view text) const;

  /// Normalizes a query-side token the same way document tokens are
  /// normalized (case folding), so query terms match indexed terms.
  std::string Normalize(std::string_view token) const;
};

}  // namespace fts

#endif  // FTS_TEXT_TOKENIZER_H_

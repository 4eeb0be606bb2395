// The Corpus owns the dictionary (token string <-> TokenId) and the set of
// tokenized context nodes. It is the in-memory realization of the paper's
// full-text model: Positions(n) and Token(p) are answered directly from the
// stored TokenizedDocuments; the inverted index (src/index) is a derived,
// query-optimized view of the same data.

#ifndef FTS_TEXT_CORPUS_H_
#define FTS_TEXT_CORPUS_H_

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/document.h"
#include "text/tokenizer.h"

namespace fts {

/// A collection of tokenized context nodes plus their shared dictionary.
class Corpus {
 public:
  Corpus() = default;

  /// Adds a context node from raw text (tokenizing it) and returns its id.
  NodeId AddDocument(std::string_view text);

  /// Adds a context node from a token stream with explicit positions.
  /// Spellings are interned verbatim (no case folding), so a caller that
  /// normalizes tokens its own way keeps its spellings; offsets may have
  /// gaps but must strictly increase (InvalidArgument otherwise: the
  /// index's run table and every engine's position order rely on it).
  StatusOr<NodeId> AddAnalyzedDocument(const std::vector<RawToken>& tokens);

  /// Adds a context node from pre-tokenized content. `tokens` are token
  /// strings in position order; positions default to consecutive offsets in
  /// a single sentence/paragraph.
  NodeId AddTokens(const std::vector<std::string>& tokens);

  /// Adds a context node with explicit per-token positions. `tokens` and
  /// `positions` must be the same length with strictly increasing offsets.
  StatusOr<NodeId> AddTokensWithPositions(const std::vector<std::string>& tokens,
                                          const std::vector<PositionInfo>& positions);

  /// Number of context nodes (|N|, the paper's `cnodes`).
  size_t num_nodes() const { return docs_.size(); }

  /// Number of distinct tokens across all nodes (|T| restricted to the
  /// corpus, which is the finite set physically instantiated; Section 2.3).
  size_t vocabulary_size() const { return id_to_token_.size(); }

  /// The tokenized content of node `id`; id must be < num_nodes().
  const TokenizedDocument& doc(NodeId id) const { return docs_[id]; }

  /// Every node's tokenized content, by node id.
  std::span<const TokenizedDocument> docs() const { return docs_; }

  /// A new corpus holding nodes [begin, end) with a fresh dictionary
  /// (token ids are re-interned in first-sight order; spellings and
  /// positions are copied verbatim, with no re-normalization). This is the
  /// document-partitioning primitive for sharding: node `begin + i` of
  /// this corpus becomes node `i` of the slice, so a router that assigns
  /// the slice a doc-id base of `begin` reconstructs the original ids
  /// exactly (docs/serving.md).
  StatusOr<Corpus> Slice(NodeId begin, NodeId end) const;

  /// Interns `token`, assigning a fresh id on first sight.
  TokenId InternToken(std::string_view token);

  /// Looks up `token` without interning; kInvalidToken if absent.
  TokenId LookupToken(std::string_view token) const;

  /// The spelling of token `id`; id must be a valid TokenId.
  const std::string& token_text(TokenId id) const { return id_to_token_[id]; }

 private:
  Tokenizer tokenizer_;
  std::vector<TokenizedDocument> docs_;
  std::unordered_map<std::string, TokenId> token_to_id_;
  std::vector<std::string> id_to_token_;
};

}  // namespace fts

#endif  // FTS_TEXT_CORPUS_H_

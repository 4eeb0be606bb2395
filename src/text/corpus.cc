#include "text/corpus.h"

namespace fts {

namespace {

/// InvalidArgument unless the offsets `offset_of(0..n)` strictly increase.
template <typename OffsetOf>
Status CheckIncreasing(size_t n, const OffsetOf& offset_of) {
  for (size_t i = 1; i < n; ++i) {
    if (offset_of(i) <= offset_of(i - 1)) {
      return Status::InvalidArgument("position offsets must be strictly increasing");
    }
  }
  return Status::OK();
}

}  // namespace

NodeId Corpus::AddDocument(std::string_view text) {
  // The tokenizer numbers tokens consecutively: the offsets increase.
  return *AddAnalyzedDocument(tokenizer_.Tokenize(text));
}

StatusOr<NodeId> Corpus::AddAnalyzedDocument(const std::vector<RawToken>& tokens) {
  FTS_RETURN_IF_ERROR(CheckIncreasing(
      tokens.size(), [&](size_t i) { return tokens[i].position.offset; }));
  TokenizedDocument doc;
  for (const RawToken& raw : tokens) {
    doc.tokens.push_back(InternToken(raw.text));
    doc.positions.push_back(raw.position);
  }
  docs_.push_back(std::move(doc));
  return static_cast<NodeId>(docs_.size() - 1);
}

NodeId Corpus::AddTokens(const std::vector<std::string>& tokens) {
  TokenizedDocument doc;
  uint32_t offset = 0;
  for (const std::string& tok : tokens) {
    doc.tokens.push_back(InternToken(tokenizer_.Normalize(tok)));
    doc.positions.push_back(PositionInfo{offset++, 0, 0});
  }
  docs_.push_back(std::move(doc));
  return static_cast<NodeId>(docs_.size() - 1);
}

StatusOr<NodeId> Corpus::AddTokensWithPositions(const std::vector<std::string>& tokens,
                                                const std::vector<PositionInfo>&
                                                    positions) {
  if (tokens.size() != positions.size()) {
    return Status::InvalidArgument("tokens/positions size mismatch: " +
                                   std::to_string(tokens.size()) + " vs " +
                                   std::to_string(positions.size()));
  }
  FTS_RETURN_IF_ERROR(CheckIncreasing(
      positions.size(), [&](size_t i) { return positions[i].offset; }));
  TokenizedDocument doc;
  for (size_t i = 0; i < tokens.size(); ++i) {
    doc.tokens.push_back(InternToken(tokenizer_.Normalize(tokens[i])));
    doc.positions.push_back(positions[i]);
  }
  docs_.push_back(std::move(doc));
  return static_cast<NodeId>(docs_.size() - 1);
}

StatusOr<Corpus> Corpus::Slice(NodeId begin, NodeId end) const {
  if (begin > end || end > docs_.size()) {
    return Status::InvalidArgument(
        "corpus slice [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") out of range for " + std::to_string(docs_.size()) + " nodes");
  }
  Corpus out;
  out.docs_.reserve(end - begin);
  for (NodeId n = begin; n < end; ++n) {
    const TokenizedDocument& src = docs_[n];
    TokenizedDocument doc;
    doc.tokens.reserve(src.tokens.size());
    // Intern by spelling, not by copying ids: the slice's dictionary is
    // dense over only the tokens its documents actually contain.
    for (const TokenId t : src.tokens) {
      doc.tokens.push_back(out.InternToken(id_to_token_[t]));
    }
    doc.positions = src.positions;
    out.docs_.push_back(std::move(doc));
  }
  return out;
}

TokenId Corpus::InternToken(std::string_view token) {
  auto it = token_to_id_.find(std::string(token));
  if (it != token_to_id_.end()) return it->second;
  TokenId id = static_cast<TokenId>(id_to_token_.size());
  id_to_token_.emplace_back(token);
  token_to_id_.emplace(id_to_token_.back(), id);
  return id;
}

TokenId Corpus::LookupToken(std::string_view token) const {
  auto it = token_to_id_.find(std::string(token));
  return it == token_to_id_.end() ? kInvalidToken : it->second;
}

}  // namespace fts

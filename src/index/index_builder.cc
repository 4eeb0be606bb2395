#include "index/index_builder.h"

#include <algorithm>
#include <cassert>

#include "index/block_posting_list.h"

namespace fts {

InvertedIndex IndexBuilder::Build(const Corpus& corpus) {
  return Build(corpus, IndexBuildOptions{});
}

InvertedIndex IndexBuilder::Build(const Corpus& corpus,
                                  const IndexBuildOptions& options) {
  InvertedIndex index;
  const size_t num_nodes = corpus.num_nodes();
  const size_t vocab = corpus.vocabulary_size();

  index.token_texts_.reserve(vocab);
  for (TokenId t = 0; t < vocab; ++t) {
    index.token_texts_.push_back(corpus.token_text(t));
    index.token_ids_.emplace(corpus.token_text(t), t);
  }
  index.block_lists_.resize(vocab);
  index.unique_tokens_.assign(num_nodes, 0);

  // Group-and-append: each document's occurrences are grouped by token
  // with one sort of packed (token << 32 | index-in-document) keys — the
  // index is unique, so each group keeps document order — and every group
  // is appended straight to its token's list, encoded into the
  // block-compressed resident form as entries stream by in node order.
  // Nothing per node outlives its iteration except the unique-token count.
  std::vector<uint64_t> keys;
  std::vector<PositionInfo> group;
  for (NodeId n = 0; n < num_nodes; ++n) {
    const TokenizedDocument& doc = corpus.doc(n);
    keys.clear();
    for (size_t i = 0; i < doc.size(); ++i) {
      keys.push_back(static_cast<uint64_t>(doc.tokens[i]) << 32 | i);
    }
    std::sort(keys.begin(), keys.end());
    uint32_t uniq = 0;
    for (size_t g = 0; g < keys.size(); ++uniq) {
      const uint64_t tok = keys[g] >> 32;
      group.clear();
      for (; g < keys.size() && keys[g] >> 32 == tok; ++g) {
        group.push_back(doc.positions[static_cast<uint32_t>(keys[g])]);
      }
      index.block_lists_[tok].Append(n, group);
    }
    index.unique_tokens_[n] = uniq;
    if (!doc.positions.empty()) index.block_any_list_->Append(n, doc.positions);
  }
  for (BlockPostingList& l : index.block_lists_) l.Finish();
  index.block_any_list_->Finish();
  // Corpus shape statistics and TF-IDF norms from the finished lists —
  // the pass a segment merge runs too. Freshly built lists always decode.
  [[maybe_unused]] const Status finished = index.FinishLists();
  assert(finished.ok());

  // Auxiliary pair lists last: their frequent-term ranking reads the
  // finished token-list dfs, and nothing above depends on them.
  index.BuildPairIndex(corpus.docs(), options.pairs);
  return index;
}

}  // namespace fts

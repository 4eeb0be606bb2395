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
  IndexStats& s = index.stats_;
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
      s.pos_per_entry =
          std::max(s.pos_per_entry, static_cast<uint32_t>(group.size()));
    }
    index.unique_tokens_[n] = uniq;
    if (!doc.positions.empty()) {
      index.block_any_list_->Append(n, doc.positions);
      s.total_positions += doc.positions.size();
      s.pos_per_cnode = std::max(s.pos_per_cnode,
                                 static_cast<uint32_t>(doc.positions.size()));
    }
  }
  for (BlockPostingList& l : index.block_lists_) l.Finish();
  index.block_any_list_->Finish();

  // Remaining corpus shape statistics (paper Section 5.1.2 parameters).
  s.cnodes = num_nodes;
  uint64_t total_entries = 0;
  uint64_t nonempty_lists = 0;
  std::vector<uint32_t> df(vocab, 0);
  for (TokenId t = 0; t < vocab; ++t) {
    const BlockPostingList& l = index.block_lists_[t];
    if (l.empty()) continue;
    df[t] = static_cast<uint32_t>(l.num_entries());
    ++nonempty_lists;
    total_entries += l.num_entries();
    s.entries_per_token = std::max(s.entries_per_token, df[t]);
  }
  s.avg_pos_per_cnode =
      num_nodes == 0 ? 0 : static_cast<double>(s.total_positions) / num_nodes;
  s.avg_entries_per_token =
      nonempty_lists == 0 ? 0 : static_cast<double>(total_entries) / nonempty_lists;
  s.avg_pos_per_entry =
      total_entries == 0 ? 0 : static_cast<double>(s.total_positions) / total_entries;

  // TF-IDF norms from the finished list headers, through the same pass
  // snapshots run with global statistics (index/inverted_index.h). Freshly
  // built lists always decode.
  [[maybe_unused]] const Status norms =
      ComputeNodeNorms(index, df, num_nodes, nullptr, &index.node_norms_,
                       &index.min_uniq_norm_);
  assert(norms.ok());

  // Auxiliary pair lists last: their frequent-term ranking reads the
  // finished token-list dfs, and nothing above depends on them.
  if (options.pairs.frequent_terms > 0) {
    index.pair_index_ = std::make_unique<PairIndex>(
        PairIndex::Build(corpus, index, options.pairs));
    if (index.pair_index_->num_keys() == 0) index.pair_index_.reset();
  }

  return index;
}

}  // namespace fts

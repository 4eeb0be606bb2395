#include "index/index_builder.h"

#include <cassert>

#include "index/block_posting_list.h"

namespace fts {

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

  // Count and scatter: one stable counting sort of the occurrences by
  // token. Token t's count lands in start[t + 2]; after the prefix sums
  // start[t + 1] is its bucket's first slot, which the scatter advances to
  // the bucket's end, leaving bucket t at [start[t], start[t + 1]) in
  // (node, index-in-document) order — the order its list is written in.
  struct Occurrence {
    NodeId node;
    uint32_t at;  // index into the document's positions
  };
  std::vector<size_t> start(vocab + 2, 0);
  for (const TokenizedDocument& doc : corpus.docs()) {
    for (const TokenId t : doc.tokens) ++start[t + 2];
  }
  for (size_t t = 2; t < start.size(); ++t) start[t] += start[t - 1];
  std::vector<Occurrence> occurrences(start.back());
  for (NodeId n = 0; n < num_nodes; ++n) {
    const std::vector<TokenId>& tokens = corpus.doc(n).tokens;
    for (uint32_t i = 0; i < tokens.size(); ++i) {
      occurrences[start[tokens[i] + 1]++] = {n, i};
    }
  }

  // Write: each token's bucket, grouped by node, then IL_ANY, goes through
  // one reused writer into the index's store, so one list's buffers exist
  // at a time. A token with no occurrence gets its empty list.
  index.unique_tokens_.assign(num_nodes, 0);
  index.lists_.Reserve(vocab + 1, 0, 0);
  BlockListWriter writer;
  std::vector<PositionInfo> group;
  for (size_t t = 0; t < vocab; ++t) {
    for (size_t o = start[t]; o < start[t + 1];) {
      const NodeId n = occurrences[o].node;
      const std::vector<PositionInfo>& positions = corpus.doc(n).positions;
      group.clear();
      for (; o < start[t + 1] && occurrences[o].node == n; ++o) {
        group.push_back(positions[occurrences[o].at]);
      }
      writer.Append(n, group);
      ++index.unique_tokens_[n];
    }
    index.lists_.Add(std::move(writer));
  }
  std::vector<Occurrence>().swap(occurrences);
  for (NodeId n = 0; n < num_nodes; ++n) {
    const std::vector<PositionInfo>& positions = corpus.doc(n).positions;
    if (!positions.empty()) writer.Append(n, positions);
  }
  index.lists_.Add(std::move(writer));
  // The payload keeps its growth slack (never written, so mostly never
  // resident): trimming it copies the payload into a fresh buffer, and one
  // such copy per ingest seal raised the e2e ingest_live workload's peak
  // RSS by ~9% (4-vCPU VM).
  index.lists_.Seal();
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

#include "index/segment_merger.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "index/block_posting_list.h"
#include "index/pair_index.h"
#include "index/tombstone_set.h"

namespace fts {

namespace {

/// One token of the merged dictionary: where its first live occurrence
/// lands in the merged index, its spelling (borrowed from a source), and
/// its source lists as (segment, local token id), in segment order.
struct MergedToken {
  NodeId node;
  uint32_t offset;
  std::string_view text;
  std::vector<std::pair<size_t, TokenId>> sources;
};

/// Appends the live entries of `list` to `out` under their merged ids
/// (`remap`, kInvalidNode for a deleted node), position bytes verbatim.
/// Each block is decoded, and so validated on its first touch, before
/// any of its bytes are copied into the merged list, which is trusted
/// (never re-validated).
Status AppendLive(const BlockPostingList& list, const std::vector<NodeId>& remap,
                  std::vector<BlockPostingList::EntryRef>* entries,
                  BlockListWriter* out) {
  const std::string_view data = list.data();
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    FTS_RETURN_IF_ERROR(list.DecodeBlockEntries(b, entries));
    for (const BlockPostingList::EntryRef& e : *entries) {
      const NodeId node = remap[e.header.node];
      if (node == kInvalidNode) continue;
      out->AppendEncoded(node, e.header.pos_count,
                         data.substr(e.pos_byte_begin, e.pos_byte_len));
    }
  }
  return Status::OK();
}

/// The first live entry of `list` as (merged node, first offset); node is
/// kInvalidNode when every entry is deleted.
StatusOr<std::pair<NodeId, uint32_t>> FirstLive(
    const BlockPostingList& list, const std::vector<NodeId>& remap,
    std::vector<BlockPostingList::EntryRef>* entries,
    std::vector<PositionInfo>* positions) {
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    FTS_RETURN_IF_ERROR(list.DecodeBlockEntries(b, entries));
    for (const BlockPostingList::EntryRef& e : *entries) {
      const NodeId node = remap[e.header.node];
      if (node == kInvalidNode) continue;
      FTS_RETURN_IF_ERROR(list.DecodePositions(e, positions));
      return std::pair{node, positions->empty() ? 0 : (*positions)[0].offset};
    }
  }
  return std::pair{kInvalidNode, uint32_t{0}};
}

/// Every node's token-id stream, read back from a finished index: IL_ANY
/// gives each node's positions in order, and each token list names the
/// token at its positions. The lists must tile IL_ANY exactly — every
/// position named by one token — or the streams would carry ids the pair
/// builder indexes tables with; checked blocks do not promise that, so a
/// crafted input that breaks it fails with Corruption.
StatusOr<std::vector<TokenizedDocument>> TokenStreams(const InvertedIndex& index) {
  std::vector<TokenizedDocument> docs(index.num_nodes());
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  const BlockPostingList& any = index.block_any_list();
  for (size_t b = 0; b < any.num_blocks(); ++b) {
    FTS_RETURN_IF_ERROR(any.DecodeBlock(b, &entries, &positions));
    for (const PostingEntry& e : entries) {
      TokenizedDocument& doc = docs[e.node];
      const auto first = positions.begin() + e.pos_begin;
      doc.positions.assign(first, first + e.pos_count);
      doc.tokens.assign(e.pos_count, kInvalidToken);
      if (std::adjacent_find(doc.positions.begin(), doc.positions.end(),
                             std::greater_equal<>()) != doc.positions.end()) {
        return Status::Corruption("IL_ANY offsets not strictly increasing");
      }
    }
  }
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const BlockPostingList& list = *index.block_list(t);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(list.DecodeBlock(b, &entries, &positions));
      for (const PostingEntry& e : entries) {
        TokenizedDocument& doc = docs[e.node];
        for (uint32_t i = 0; i < e.pos_count; ++i) {
          const PositionInfo& p = positions[e.pos_begin + i];
          const auto at =
              std::lower_bound(doc.positions.begin(), doc.positions.end(), p);
          if (at == doc.positions.end() || at->offset != p.offset) {
            return Status::Corruption("token position missing from IL_ANY");
          }
          TokenId& slot = doc.tokens[at - doc.positions.begin()];
          if (slot != kInvalidToken) {
            return Status::Corruption("IL_ANY position claimed by two tokens");
          }
          slot = t;
        }
      }
    }
  }
  for (const TokenizedDocument& doc : docs) {
    if (std::find(doc.tokens.begin(), doc.tokens.end(), kInvalidToken) !=
        doc.tokens.end()) {
      return Status::Corruption("IL_ANY position without a token");
    }
  }
  return docs;
}

}  // namespace

/// The merge body: InvertedIndex's private tables are written directly, as
/// IndexBuilder writes them.
struct SegmentMergerAccess {
  static StatusOr<InvertedIndex> Merge(const std::vector<SegmentView>& segments,
                                       const IndexBuildOptions& options) {
    // Dense renumbering of the live nodes, in segment order.
    std::vector<std::vector<NodeId>> remap(segments.size());
    NodeId next = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      const TombstoneSet* dead = segments[s].tombstones;
      remap[s].resize(segments[s].index->num_nodes());
      for (NodeId n = 0; n < remap[s].size(); ++n) {
        remap[s][n] = dead != nullptr && dead->Contains(n) ? kInvalidNode : next++;
      }
    }

    // The merged dictionary: one token per spelling with a live occurrence,
    // keyed by the first one. A spelling's first live occurrence is in the
    // first segment that has one, so later segments only add sources.
    std::vector<MergedToken> tokens;
    std::unordered_map<std::string_view, size_t> token_of;
    std::vector<BlockPostingList::EntryRef> entries;
    std::vector<PositionInfo> positions;
    for (size_t s = 0; s < segments.size(); ++s) {
      const InvertedIndex& idx = *segments[s].index;
      for (TokenId t = 0; t < idx.vocabulary_size(); ++t) {
        const BlockPostingList& list = *idx.block_list(t);
        if (list.empty()) continue;
        const std::string_view text = idx.token_text(t);
        auto it = token_of.find(text);
        if (it == token_of.end()) {
          FTS_ASSIGN_OR_RETURN(const auto first,
                               FirstLive(list, remap[s], &entries, &positions));
          if (first.first == kInvalidNode) continue;
          it = token_of.emplace(text, tokens.size()).first;
          tokens.push_back({first.first, first.second, text, {}});
        }
        tokens[it->second].sources.emplace_back(s, t);
      }
    }
    std::sort(tokens.begin(), tokens.end(),
              [](const MergedToken& a, const MergedToken& b) {
                return std::pair{a.node, a.offset} < std::pair{b.node, b.offset};
              });

    // Each merged list goes through one reused writer into the index's
    // stores as soon as it is written, so only one list's own buffer
    // exists at a time. The stores are sized from the source lists, whose
    // bytes the merged lists copy less the deleted entries', so they
    // rarely regrow.
    InvertedIndex index;
    index.token_texts_.reserve(tokens.size());
    index.token_ids_.reserve(tokens.size());
    size_t blocks = 0, bytes = 0;
    for (const SegmentView& seg : segments) {
      for (const BlockPostingList& l : seg.index->lists_.lists()) {
        blocks += l.num_blocks();
        bytes += l.data().size();
      }
    }
    index.lists_.Reserve(tokens.size() + 1, blocks, bytes);
    BlockListWriter out;
    for (TokenId id = 0; id < tokens.size(); ++id) {
      index.token_texts_.emplace_back(tokens[id].text);
      index.token_ids_.emplace(tokens[id].text, id);
      for (const auto& [s, local] : tokens[id].sources) {
        FTS_RETURN_IF_ERROR(AppendLive(*segments[s].index->block_list(local),
                                       remap[s], &entries, &out));
      }
      index.lists_.Add(std::move(out));
    }
    for (size_t s = 0; s < segments.size(); ++s) {
      const InvertedIndex& idx = *segments[s].index;
      FTS_RETURN_IF_ERROR(AppendLive(idx.block_any_list(), remap[s], &entries, &out));
      for (NodeId n = 0; n < remap[s].size(); ++n) {
        if (remap[s][n] != kInvalidNode) {
          index.unique_tokens_.push_back(idx.unique_tokens(n));
        }
      }
    }
    index.lists_.Add(std::move(out));
    index.lists_.Seal();
    FTS_RETURN_IF_ERROR(index.FinishLists());

    if (options.pairs.frequent_terms > 0) {
      FTS_ASSIGN_OR_RETURN(const std::vector<TokenizedDocument> docs,
                           TokenStreams(index));
      index.BuildPairIndex(docs, options.pairs);
    }
    return index;
  }
};

StatusOr<InvertedIndex> MergeSegments(const std::vector<SegmentView>& segments,
                                      const IndexBuildOptions& options) {
  return SegmentMergerAccess::Merge(segments, options);
}

}  // namespace fts

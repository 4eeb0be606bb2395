#include "index/index_snapshot.h"

#include "index/block_posting_list.h"
#include "index/pair_index.h"

namespace fts {

namespace {

/// Pass 2 of the stats computation (pass 1 is AddLiveDfByText):
/// per-segment global df projections and global-idf norms, from an
/// already-aggregated global df table. Norms come from the
/// ComputeNodeNorms pass IndexBuilder runs, with global live df /
/// live_nodes substituted for the per-segment statistics, so every score
/// over the snapshot is bit-identical to a single-shot build of the
/// surviving documents. A shard server re-runs exactly this pass when a
/// scatter-gather router pushes the cross-shard global table to it
/// (IndexSnapshot::CreateSharded), so single-process and sharded
/// snapshots share it verbatim.
Status ComputeSegmentStats(
    const std::vector<SegmentView>& segments, uint64_t live_nodes,
    const std::unordered_map<std::string, uint32_t>* df_by_text,
    std::vector<SegmentScoringStats>* stats) {
  const size_t num_segments = segments.size();
  stats->resize(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    const InvertedIndex& idx = *segments[s].index;
    const TombstoneSet* dead = segments[s].tombstones;
    const TokenId vocab = static_cast<TokenId>(idx.vocabulary_size());
    SegmentScoringStats& st = (*stats)[s];
    st.live_nodes = live_nodes;
    st.df_by_text = df_by_text;
    st.global_df.assign(vocab, 0);
    for (TokenId t = 0; t < vocab; ++t) {
      const auto it = df_by_text->find(idx.token_text(t));
      st.global_df[t] = it == df_by_text->end() ? 0 : it->second;
    }
    FTS_RETURN_IF_ERROR(ComputeNodeNorms(idx, st.global_df, live_nodes, dead,
                                         &st.norms, &st.min_uniq_norm));
  }
  return Status::OK();
}

}  // namespace

Status AddLiveDfByText(const InvertedIndex& index, const TombstoneSet* tombstones,
                       std::unordered_map<std::string, uint32_t>* df_by_text) {
  std::vector<BlockPostingList::EntryRef> entries;
  // Live entries of one list. Without tombstones the list header already
  // *is* the live df.
  auto live_df = [&](const BlockPostingList& list) -> StatusOr<uint32_t> {
    if (tombstones == nullptr) return static_cast<uint32_t>(list.num_entries());
    uint32_t df = 0;
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(list.DecodeBlockEntries(b, &entries));
      for (const BlockPostingList::EntryRef& e : entries) {
        if (!tombstones->Contains(e.header.node)) ++df;
      }
    }
    return df;
  };
  const TokenId vocab = static_cast<TokenId>(index.vocabulary_size());
  for (TokenId t = 0; t < vocab; ++t) {
    const BlockPostingList* list = index.block_list(t);
    if (list == nullptr || list->empty()) continue;
    FTS_ASSIGN_OR_RETURN(const uint32_t df, live_df(*list));
    if (df != 0) (*df_by_text)[index.token_text(t)] += df;
  }

  // Pair-list dfs ride the same by-text exchange under their
  // collision-proof StatsKey ('\x1f' separator — unreachable by tokenizer
  // output). Scoring never resolves these keys (pass 2 and the models look
  // up real token texts only); the multi-index planner reads them as
  // snapshot-global pair dfs.
  if (const PairIndex* pair = index.pair_index()) {
    for (size_t k = 0; k < pair->num_keys(); ++k) {
      FTS_ASSIGN_OR_RETURN(const uint32_t df, live_df(pair->list(k)));
      if (df == 0) continue;
      const PairTermKey& key = pair->key(k);
      (*df_by_text)[PairIndex::StatsKey(index.token_text(key.first),
                                        index.token_text(key.second))] += df;
    }
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const IndexSnapshot>> IndexSnapshot::Create(
    std::vector<std::shared_ptr<const InvertedIndex>> segments,
    std::vector<std::shared_ptr<const TombstoneSet>> tombstones,
    uint64_t generation) {
  std::shared_ptr<IndexSnapshot> snap(new IndexSnapshot());
  snap->generation_ = generation;
  snap->owned_ = std::move(segments);
  tombstones.resize(snap->owned_.size());
  // All-empty tombstone sets are "no deletes": cursors and the fast path
  // both key off null.
  for (std::shared_ptr<const TombstoneSet>& t : tombstones) {
    if (t != nullptr && t->empty()) t = nullptr;
  }
  snap->owned_tombstones_ = std::move(tombstones);

  bool any_deletes = false;
  NodeId base = 0;
  for (size_t i = 0; i < snap->owned_.size(); ++i) {
    const InvertedIndex* idx = snap->owned_[i].get();
    if (idx == nullptr) return Status::InvalidArgument("null segment");
    const TombstoneSet* dead = snap->owned_tombstones_[i].get();
    SegmentView view;
    view.index = idx;
    view.base = base;
    view.tombstones = dead;
    snap->segments_.push_back(view);
    base += static_cast<NodeId>(idx->num_nodes());
    snap->live_nodes_ +=
        idx->num_nodes() - (dead != nullptr ? dead->deleted_count() : 0);
    if (dead != nullptr) any_deletes = true;
  }
  snap->total_nodes_ = base;

  if (snap->segments_.size() > 1 || any_deletes) {
    for (const SegmentView& seg : snap->segments_) {
      FTS_RETURN_IF_ERROR(
          AddLiveDfByText(*seg.index, seg.tombstones, &snap->df_by_text_));
    }
    FTS_RETURN_IF_ERROR(ComputeSegmentStats(
        snap->segments_, snap->live_nodes_, &snap->df_by_text_, &snap->stats_));
    for (size_t i = 0; i < snap->segments_.size(); ++i) {
      snap->segments_[i].scoring = &snap->stats_[i];
    }
  }
  return std::shared_ptr<const IndexSnapshot>(std::move(snap));
}

StatusOr<std::shared_ptr<const IndexSnapshot>> IndexSnapshot::CreateSharded(
    std::shared_ptr<const InvertedIndex> segment, uint64_t global_live_nodes,
    std::unordered_map<std::string, uint32_t> df_by_text,
    uint64_t generation) {
  if (segment == nullptr) return Status::InvalidArgument("null segment");
  std::shared_ptr<IndexSnapshot> snap(new IndexSnapshot());
  snap->generation_ = generation;
  snap->owned_.push_back(std::move(segment));
  snap->owned_tombstones_.resize(1);
  const InvertedIndex* idx = snap->owned_[0].get();
  SegmentView view;
  view.index = idx;
  snap->segments_.push_back(view);
  snap->total_nodes_ = idx->num_nodes();
  snap->live_nodes_ = idx->num_nodes();
  snap->df_by_text_ = std::move(df_by_text);
  // Rerun only pass 2 of the stats computation: the caller already
  // aggregated the cross-shard df table, and this shard's norms under the
  // global idf come out bit-identical to a single-index build of the full
  // corpus because the pass is shared verbatim with Create().
  FTS_RETURN_IF_ERROR(ComputeSegmentStats(snap->segments_, global_live_nodes,
                                          &snap->df_by_text_, &snap->stats_));
  snap->segments_[0].scoring = &snap->stats_[0];
  return std::shared_ptr<const IndexSnapshot>(std::move(snap));
}

std::shared_ptr<const IndexSnapshot> IndexSnapshot::ForIndex(
    const InvertedIndex* index) {
  std::shared_ptr<IndexSnapshot> snap(new IndexSnapshot());
  SegmentView view;
  view.index = index;
  snap->segments_.push_back(view);
  snap->total_nodes_ = index->num_nodes();
  snap->live_nodes_ = index->num_nodes();
  return snap;
}

}  // namespace fts

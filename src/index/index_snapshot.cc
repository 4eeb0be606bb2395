#include "index/index_snapshot.h"

#include "index/block_posting_list.h"

namespace fts {

namespace {

/// Pass 2 of the stats computation (pass 1 is AddLiveDfByText):
/// per-segment global df projections and global-idf norms, from an
/// already-aggregated global df table. Norms come from the
/// ComputeNodeNorms pass IndexBuilder runs, with global live df /
/// live_nodes substituted for the per-segment statistics; its sums are
/// exact and order-free, so every score over the snapshot is
/// bit-identical to a single-shot build of the surviving documents. A
/// shard server re-runs exactly this pass when a scatter-gather router
/// pushes the cross-shard global table to it (IndexSnapshot::CreateSharded),
/// so single-process and sharded snapshots share it verbatim.
Status ComputeSegmentStats(
    const std::vector<SegmentView>& segments, uint64_t live_nodes,
    const std::unordered_map<std::string, uint32_t>* df_by_text,
    std::vector<std::vector<uint32_t>>* global_df,
    std::vector<std::vector<double>>* norms,
    std::vector<SegmentScoringStats>* stats) {
  const size_t num_segments = segments.size();
  // Sized up front: the records view into the inner vectors.
  global_df->resize(num_segments);
  norms->resize(num_segments);
  stats->resize(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    const InvertedIndex& idx = *segments[s].index;
    std::vector<uint32_t>& df = (*global_df)[s];
    df.assign(idx.vocabulary_size(), 0);
    for (TokenId t = 0; t < df.size(); ++t) {
      const auto it = df_by_text->find(idx.token_text(t));
      if (it != df_by_text->end()) df[t] = it->second;
    }
    SegmentScoringStats& st = (*stats)[s];
    st.live_nodes = live_nodes;
    st.global_df = df;
    st.df_by_text = df_by_text;
    FTS_RETURN_IF_ERROR(
        ComputeNodeNorms(idx, segments[s].tombstones, &(*norms)[s], &st));
  }
  return Status::OK();
}

}  // namespace

Status AddLiveDfByText(const InvertedIndex& index, const TombstoneSet* tombstones,
                       std::unordered_map<std::string, uint32_t>* df_by_text) {
  std::vector<BlockPostingList::EntryRef> entries;
  const TokenId vocab = static_cast<TokenId>(index.vocabulary_size());
  for (TokenId t = 0; t < vocab; ++t) {
    const BlockPostingList* list = index.block_list(t);
    if (list == nullptr || list->empty()) continue;
    // Without tombstones the list header already *is* the live df.
    uint32_t df = static_cast<uint32_t>(list->num_entries());
    if (tombstones != nullptr) {
      df = 0;
      for (size_t b = 0; b < list->num_blocks(); ++b) {
        FTS_RETURN_IF_ERROR(list->DecodeBlockEntries(b, &entries));
        for (const BlockPostingList::EntryRef& e : entries) {
          if (!tombstones->Contains(e.header.node)) ++df;
        }
      }
    }
    if (df != 0) (*df_by_text)[index.token_text(t)] += df;
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
  // All-empty tombstone sets are "no deletes": cursors and the choice of
  // the index's own scoring record both key off null.
  for (std::shared_ptr<const TombstoneSet>& t : tombstones) {
    if (t != nullptr && t->empty()) t = nullptr;
  }
  snap->owned_tombstones_ = std::move(tombstones);

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
  }
  snap->total_nodes_ = base;
  return std::shared_ptr<const IndexSnapshot>(std::move(snap));
}

StatusOr<std::span<const SegmentScoringStats>> IndexSnapshot::ScoringStats() const {
  if (stats_demand() != StatsDemand::kScored) {
    stats_demand_.store(StatsDemand::kScored, std::memory_order_relaxed);
  }
  PrecomputeScoringStats();
  FTS_RETURN_IF_ERROR(stats_status_);
  return std::span<const SegmentScoringStats>(stats_);
}

void IndexSnapshot::NoteUnscoredReader() const {
  // Load first: once marked, readers share the line without writing it.
  StatsDemand unread = StatsDemand::kUnread;
  if (stats_demand() == unread) {
    stats_demand_.compare_exchange_strong(unread, StatsDemand::kUnscored,
                                          std::memory_order_relaxed);
  }
}

void IndexSnapshot::PrecomputeScoringStats() const {
  std::call_once(stats_once_, [this] {
    if (segments_.size() == 1 && segments_[0].tombstones == nullptr) {
      stats_.push_back(segments_[0].index->scoring_stats());
      return;
    }
    for (const SegmentView& seg : segments_) {
      stats_status_ = AddLiveDfByText(*seg.index, seg.tombstones, &df_by_text_);
      if (!stats_status_.ok()) return;
    }
    stats_status_ = ComputeSegmentStats(segments_, live_nodes_, &df_by_text_,
                                        &global_df_, &norms_, &stats_);
  });
  stats_computed_.store(true, std::memory_order_release);
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
  // Rerun only pass 2 of the stats computation, eagerly: the caller
  // already aggregated the cross-shard df table, and this shard's norms
  // under the global idf come out bit-identical to a single-index build of
  // the full corpus because the pass is shared verbatim with
  // ScoringStats(), whose once-flag this run consumes.
  std::call_once(snap->stats_once_, [&] {
    snap->stats_status_ = ComputeSegmentStats(
        snap->segments_, global_live_nodes, &snap->df_by_text_,
        &snap->global_df_, &snap->norms_, &snap->stats_);
  });
  snap->stats_computed_.store(true, std::memory_order_release);
  FTS_RETURN_IF_ERROR(snap->stats_status_);
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

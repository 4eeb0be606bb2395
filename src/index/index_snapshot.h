// IndexSnapshot: one refcounted generation of the segment architecture
// (docs/ingestion.md).
//
// A snapshot is an immutable, ordered set of sealed segments (each an
// ordinary InvertedIndex) plus per-segment tombstone bitmaps. Queries
// evaluate per segment over disjoint doc-id sub-spaces — segment i owns
// the global ids [base_i, base_i + num_nodes_i) — and results concatenate
// into one globally ascending answer (src/eval/searcher.h). Writers never
// mutate a published snapshot: ingest seals a new segment (or marks
// tombstones in a copied bitmap) and atomically publishes a *new*
// generation; readers that acquired the old shared_ptr keep evaluating
// against it, and the old generation retires when its last query drains.
//
// Scoring stays bit-identical to a single-shot build of the surviving
// documents: TF-IDF idf and node norms depend on corpus-global document
// frequencies, so Create() precomputes SnapshotScoringStats — global live
// df per token and per-segment node norms recomputed under global idf by
// the ComputeNodeNorms pass IndexBuilder itself runs
// (index/inverted_index.h) — and the score models read them instead of the
// per-segment statistics.
// The single-segment, no-tombstone case (ForIndex, and every pre-segment
// caller) skips the stats entirely and evaluates exactly as before.

#ifndef FTS_INDEX_INDEX_SNAPSHOT_H_
#define FTS_INDEX_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "index/inverted_index.h"
#include "index/tombstone_set.h"

namespace fts {

/// Corpus-global scoring inputs for one segment of a snapshot, precomputed
/// at snapshot creation. Null on the single-segment fast path (the score
/// models then read the segment's own statistics, which *are* global).
struct SegmentScoringStats {
  /// Live (non-tombstoned) nodes across the whole snapshot — the scoring
  /// db_size that replaces InvertedIndex::num_nodes().
  uint64_t live_nodes = 0;
  /// Global live document frequency by this segment's local TokenId.
  std::vector<uint32_t> global_df;
  /// Node norms by local NodeId, recomputed with global idf by
  /// ComputeNodeNorms (bit-identical to what IndexBuilder would compute for
  /// the merged surviving corpus).
  std::vector<double> norms;
  /// Global live df by token text, for query tokens that are
  /// out-of-vocabulary in this segment but live elsewhere (they still
  /// contribute idf to the query norm). Owned by the snapshot.
  const std::unordered_map<std::string, uint32_t>* df_by_text = nullptr;
  /// Minimum over this segment's *live* nodes of max(1, unique_tokens(n))
  /// * norms[n] — the smallest denominator a TF-IDF LeafScore over this
  /// segment can see under the global stats. Block-max top-k divides by it
  /// to bound per-block impact; tombstoned nodes are excluded (their norms
  /// are placeholders and they are never scored), which can only raise the
  /// minimum and tighten — never unsound-en — the bound. +infinity when
  /// the segment has no live node.
  double min_uniq_norm = std::numeric_limits<double>::infinity();
};

/// One segment as seen by the read path.
struct SegmentView {
  const InvertedIndex* index = nullptr;
  /// Global id of this segment's local node 0; bases are disjoint and
  /// strictly increasing in segment order.
  NodeId base = 0;
  /// Delete bitmap over local node ids; null when nothing is deleted.
  const TombstoneSet* tombstones = nullptr;
  /// Global scoring inputs; null on the single-segment fast path.
  const SegmentScoringStats* scoring = nullptr;
};

/// Pass 1 of the snapshot's stats computation, also a shard's answer to a
/// router's stats request: adds the live document frequency of every token
/// of `index` to `df_by_text` under its text, and of every pair list under
/// its PairIndex::StatsKey. Zero dfs add nothing. Reads list headers only
/// unless `tombstones` (nullable) forces an entry decode, which can fail
/// with Corruption on a lazily validated block.
Status AddLiveDfByText(const InvertedIndex& index, const TombstoneSet* tombstones,
                       std::unordered_map<std::string, uint32_t>* df_by_text);

/// An immutable, refcounted generation: hold it via shared_ptr for the
/// duration of a query and every segment it references stays alive.
class IndexSnapshot {
 public:
  /// Builds a snapshot over `segments` (shared ownership) with optional
  /// per-segment `tombstones` (the vector may be shorter than `segments`;
  /// missing or null entries mean no deletes). Computes the global scoring
  /// stats unless the snapshot degenerates to one segment without deletes.
  /// Fails with Corruption if a lazily validated segment's payload is
  /// malformed (stats computation decodes every entry header once).
  static StatusOr<std::shared_ptr<const IndexSnapshot>> Create(
      std::vector<std::shared_ptr<const InvertedIndex>> segments,
      std::vector<std::shared_ptr<const TombstoneSet>> tombstones = {},
      uint64_t generation = 0);

  /// One shard of a document-partitioned corpus, scored with corpus-global
  /// statistics supplied by a scatter-gather router (docs/serving.md): the
  /// snapshot holds `segment` alone, but its norms and idf are recomputed
  /// under `global_live_nodes` and the cross-shard `df_by_text` table —
  /// the same pass-2 arithmetic Create() runs — so this shard's scores are
  /// bit-identical to the corresponding rows of a single-index build of
  /// the full corpus. total_nodes()/live_nodes() stay local (the shard's
  /// own id space); only the scoring inputs are global.
  static StatusOr<std::shared_ptr<const IndexSnapshot>> CreateSharded(
      std::shared_ptr<const InvertedIndex> segment, uint64_t global_live_nodes,
      std::unordered_map<std::string, uint32_t> df_by_text,
      uint64_t generation = 0);

  /// Borrowed single-segment snapshot over an externally owned index —
  /// how one InvertedIndex is served (Searcher(ForIndex(&index), ...)).
  /// `index` must outlive the snapshot. No stats, no
  /// tombstones: evaluation is bit-for-bit the pre-segment read path.
  static std::shared_ptr<const IndexSnapshot> ForIndex(const InvertedIndex* index);

  size_t num_segments() const { return segments_.size(); }
  const SegmentView& segment(size_t i) const { return segments_[i]; }
  const std::vector<SegmentView>& segments() const { return segments_; }

  uint64_t generation() const { return generation_; }
  /// Total id space (live + tombstoned) — the base that a next segment
  /// would get.
  uint64_t total_nodes() const { return total_nodes_; }
  uint64_t live_nodes() const { return live_nodes_; }

 private:
  IndexSnapshot() = default;

  std::vector<SegmentView> segments_;
  std::vector<std::shared_ptr<const InvertedIndex>> owned_;
  std::vector<std::shared_ptr<const TombstoneSet>> owned_tombstones_;
  std::vector<SegmentScoringStats> stats_;  // parallel to segments_ when present
  std::unordered_map<std::string, uint32_t> df_by_text_;
  uint64_t generation_ = 0;
  uint64_t total_nodes_ = 0;
  uint64_t live_nodes_ = 0;
};

/// Anything that can hand out the current generation: an IngestService
/// under live writes, or a static wrapper over one loaded index. snapshot()
/// must be safe to call from any thread and O(1) — a query acquires the
/// generation by copying the shared_ptr and holds it until it drains.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  virtual std::shared_ptr<const IndexSnapshot> snapshot() const = 0;
};

/// A SnapshotSource pinned to one immutable snapshot (no generations).
class StaticSnapshotSource : public SnapshotSource {
 public:
  explicit StaticSnapshotSource(std::shared_ptr<const IndexSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}
  std::shared_ptr<const IndexSnapshot> snapshot() const override {
    return snapshot_;
  }

 private:
  std::shared_ptr<const IndexSnapshot> snapshot_;
};

}  // namespace fts

#endif  // FTS_INDEX_INDEX_SNAPSHOT_H_

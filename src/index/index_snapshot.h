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
// frequencies, so every segment is scored from one SegmentScoringStats
// record (index/inverted_index.h). A one-segment snapshot without
// tombstones (ForIndex included) uses its index's own record, which *is*
// global. Every other snapshot owns snapshot-global records — global live
// df per token and per-segment node norms recomputed under global idf by
// the ComputeNodeNorms pass IndexBuilder itself runs, whose exact,
// order-free sums give a node the same norm bits in any segment. Creating a
// generation does not pay for them: they are computed once per
// generation, under std::call_once, either by the first scored Searcher
// or, before publishing, by a writer whose readers score (stats_demand(),
// PrecomputeScoringStats), so that scored traffic does not wait on the
// pass. Only scoring reads them — the planner prices each segment from its
// own list headers — so unscored generations never compute them.

#ifndef FTS_INDEX_INDEX_SNAPSHOT_H_
#define FTS_INDEX_INDEX_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "index/inverted_index.h"
#include "index/tombstone_set.h"

namespace fts {

/// One segment as seen by the read path.
struct SegmentView {
  const InvertedIndex* index = nullptr;
  /// Global id of this segment's local node 0; bases are disjoint and
  /// strictly increasing in segment order.
  NodeId base = 0;
  /// Delete bitmap over local node ids; null when nothing is deleted.
  const TombstoneSet* tombstones = nullptr;
};

/// Pass 1 of the snapshot's stats computation, also a shard's answer to a
/// router's stats request: adds the live document frequency of every token
/// of `index` to `df_by_text` under its text. Token dfs only — pair lists
/// are planner input, which reads each segment's own headers. Zero dfs add
/// nothing. Reads list headers only unless `tombstones` (nullable) forces
/// an entry decode, which can fail with Corruption on a lazily validated
/// block.
Status AddLiveDfByText(const InvertedIndex& index, const TombstoneSet* tombstones,
                       std::unordered_map<std::string, uint32_t>* df_by_text);

/// An immutable, refcounted generation: hold it via shared_ptr for the
/// duration of a query and every segment it references stays alive.
class IndexSnapshot {
 public:
  /// Builds a snapshot over `segments` (shared ownership) with optional
  /// per-segment `tombstones` (the vector may be shorter than `segments`;
  /// missing or null entries mean no deletes). Reads no list: the scoring
  /// stats wait for ScoringStats(). Fails only on a null segment.
  static StatusOr<std::shared_ptr<const IndexSnapshot>> Create(
      std::vector<std::shared_ptr<const InvertedIndex>> segments,
      std::vector<std::shared_ptr<const TombstoneSet>> tombstones = {},
      uint64_t generation = 0);

  /// One shard of a document-partitioned corpus, scored with corpus-global
  /// statistics supplied by a scatter-gather router (docs/serving.md): the
  /// snapshot holds `segment` alone, but its scoring record is recomputed
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
  /// `index` must outlive the snapshot. No tombstones; its scoring record
  /// is the index's own.
  static std::shared_ptr<const IndexSnapshot> ForIndex(const InvertedIndex* index);

  /// The scoring records, one per segment, computed on the first call
  /// (any thread; later calls return the same result). One segment without
  /// deletes takes its index's own record, in O(1). Otherwise pass 1 adds
  /// up live dfs by text (AddLiveDfByText) and pass 2 recomputes each
  /// segment's dfs and norms under global idf. Fails with Corruption — on
  /// this and every later call — if a lazily validated segment's payload
  /// is malformed (pass 1 decodes the entry headers of tombstoned
  /// segments, pass 2 those of every list). Also records the demand
  /// (StatsDemand::kScored).
  StatusOr<std::span<const SegmentScoringStats>> ScoringStats() const;

  /// What this generation's readers have asked of it — the writer's signal
  /// for whether to precompute the next generation's stats
  /// (IngestService::PublishLocked).
  enum class StatsDemand : uint8_t {
    kUnread,    // no Searcher yet
    kUnscored,  // Searchers, none of which needed the stats
    kScored,    // a Searcher called ScoringStats()
  };
  StatsDemand stats_demand() const {
    return stats_demand_.load(std::memory_order_relaxed);
  }
  /// Records a Searcher that does not need the stats (kUnread ->
  /// kUnscored; a kScored generation stays kScored).
  void NoteUnscoredReader() const;

  /// Runs ScoringStats()'s computation now, if it has not run, without
  /// counting as a reader's demand. A failure is kept for the readers.
  void PrecomputeScoringStats() const;
  /// Whether the stats computation has run (successfully or not).
  bool scoring_stats_computed() const {
    return stats_computed_.load(std::memory_order_acquire);
  }

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
  /// Written once, inside stats_once_ (CreateSharded runs it eagerly).
  mutable std::once_flag stats_once_;
  mutable std::atomic<StatsDemand> stats_demand_{StatsDemand::kUnread};
  mutable std::atomic<bool> stats_computed_{false};
  mutable Status stats_status_;
  mutable std::vector<SegmentScoringStats> stats_;  // parallel to segments_
  /// Storage the snapshot-global records view (empty when the one record
  /// is an index's own).
  mutable std::unordered_map<std::string, uint32_t> df_by_text_;
  mutable std::vector<std::vector<uint32_t>> global_df_;
  mutable std::vector<std::vector<double>> norms_;
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

// IngestService: the live write path of the segment architecture
// (docs/ingestion.md).
//
// Writers append documents to an in-memory SegmentBuffer; when the buffer
// fills (or on an explicit Refresh) it is sealed through the ordinary
// IndexBuilder into an immutable segment and a new IndexSnapshot
// generation is published. Deletes mark tombstones in a copied bitmap —
// published generations are never mutated. A background merger compacts
// the segment list (dropping tombstoned documents) when it grows past the
// merge factor.
//
// Concurrency contract: one writer mutex serializes every mutation (Add,
// Delete, Refresh, Compact, and the background merge), and is never held
// while a query runs. snapshot() — the read side — only takes a leaf
// mutex long enough to copy a shared_ptr, so queries acquire a generation
// in O(1) and never block on ingest, sealing, or merging. A generation
// retires (frees its segments) when the last query holding it drains.

#ifndef FTS_EXEC_INGEST_SERVICE_H_
#define FTS_EXEC_INGEST_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "index/index_snapshot.h"
#include "index/segment.h"

namespace fts {

class IngestService : public SnapshotSource {
 public:
  struct Options {
    /// Seal the in-memory buffer into a segment (and publish a new
    /// generation) when it reaches this many documents; Refresh() seals
    /// earlier on demand.
    size_t max_buffered_docs = 1024;
    /// The background merger compacts the whole segment list into one
    /// segment when the snapshot holds more than this many segments.
    size_t merge_factor = 8;
    /// When non-empty, every sealed segment is also flushed to
    /// `<spill_dir>/segment-<seal#>.fts` as an ordinary index file,
    /// crash-consistently (write-then-rename; see SaveSegmentAtomic).
    std::string spill_dir;
    /// IndexBuilder knobs applied to every seal and compaction. With
    /// build.pairs.frequent_terms > 0 each sealed segment carries its own
    /// pair lists and Compact() rebuilds them over the merged segment.
    IndexBuildOptions build;
  };

  IngestService();
  explicit IngestService(Options options);
  ~IngestService() override;

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// The current published generation; O(1) and safe from any thread.
  std::shared_ptr<const IndexSnapshot> snapshot() const override;

  /// Appends one document (tokenizing it) and returns the global id it
  /// will carry once visible — the document becomes queryable at the next
  /// seal (auto or Refresh). Ids are generation-relative (Lucene
  /// semantics): a compaction renumbers survivors densely, so hold ids
  /// only as long as the generation they came from. A non-OK status means
  /// an auto-seal's spill write failed — the document is ingested and will
  /// be served from memory, but its segment is not on disk.
  StatusOr<uint64_t> Add(std::string_view text);

  /// Marks the document `global_id` of the *current* generation deleted
  /// and publishes the new generation. Documents still in the unsealed
  /// buffer are not addressable (Refresh first). Deleting an already
  /// deleted id is a harmless no-op.
  Status Delete(uint64_t global_id);

  /// Seals any buffered documents into a segment and publishes a new
  /// generation making them visible. No-op when the buffer is empty.
  Status Refresh();

  /// Synchronously merges all segments into one — dropping tombstoned
  /// documents and renumbering survivors densely — and publishes the
  /// compacted generation.
  Status Compact();

  /// First error the background merger hit, OK while none: compaction is
  /// asynchronous, so its failures surface here (and the service keeps
  /// serving the unmerged segments).
  Status merger_status() const;

 private:
  /// Seals the buffer and publishes; caller holds write_mu_.
  Status SealLocked();
  /// Merges everything into one segment and publishes; caller holds
  /// write_mu_.
  Status CompactLocked();
  /// Publishes the current segment/tombstone state as a new generation;
  /// caller holds write_mu_. The scoring stats of the new generation are
  /// computed here only while readers score (scored_readers_); otherwise
  /// they wait for the first query that needs them. snapshot_mu_ is only
  /// held for the pointer swap.
  Status PublishLocked();
  void MergerLoop();

  Options options_;

  /// Serializes writers and the merger; never held while a query runs.
  mutable std::mutex write_mu_;
  SegmentBuffer buffer_;
  std::vector<std::shared_ptr<const InvertedIndex>> segments_;
  std::vector<std::shared_ptr<const TombstoneSet>> tombstones_;
  uint64_t generation_ = 0;
  uint64_t seals_ = 0;  // names spilled segment files
  uint64_t published_total_ = 0;  // id space of the published generation
  /// Whether the last generation that had readers had a scored one.
  bool scored_readers_ = false;
  Status merger_status_;
  bool stop_ = false;

  std::condition_variable merge_cv_;
  std::thread merger_;

  /// Leaf lock guarding only the published pointer (held for shared_ptr
  /// copies and swaps, nothing else). Only PublishLocked writes the
  /// pointer, under write_mu_ too, so a write_mu_ holder may read it
  /// without this lock.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
};

}  // namespace fts

#endif  // FTS_EXEC_INGEST_SERVICE_H_

#include "exec/ingest_service.h"

#include <algorithm>
#include <utility>

#include "index/segment_merger.h"

namespace fts {

IngestService::IngestService() : IngestService(Options()) {}

IngestService::IngestService(Options options) : options_(std::move(options)) {
  if (options_.max_buffered_docs == 0) options_.max_buffered_docs = 1;
  if (options_.merge_factor < 2) options_.merge_factor = 2;
  // The empty generation 0: queries served before the first seal see an
  // empty corpus, not an error. Creating an empty snapshot cannot fail.
  snapshot_ = std::move(IndexSnapshot::Create({}, {}, 0)).value();
  merger_ = std::thread([this] { MergerLoop(); });
}

IngestService::~IngestService() {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    stop_ = true;
  }
  merge_cv_.notify_all();
  if (merger_.joinable()) merger_.join();
}

std::shared_ptr<const IndexSnapshot> IngestService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

StatusOr<uint64_t> IngestService::Add(std::string_view text) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const uint64_t id = published_total_ + buffer_.num_docs();
  buffer_.Add(text);
  if (buffer_.num_docs() >= options_.max_buffered_docs) {
    FTS_RETURN_IF_ERROR(SealLocked());
  }
  return id;
}

Status IngestService::Delete(uint64_t global_id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (global_id >= published_total_) {
    return Status::InvalidArgument(
        "document " + std::to_string(global_id) +
        " is not in the published generation (buffered documents become "
        "addressable after Refresh)");
  }
  // Locate the owning segment by its base range.
  uint64_t base = 0;
  size_t seg = 0;
  while (global_id >= base + segments_[seg]->num_nodes()) {
    base += segments_[seg]->num_nodes();
    ++seg;
  }
  const NodeId local = static_cast<NodeId>(global_id - base);
  // Copy-on-write: generations already published keep reading their own
  // bitmap; only the next generation sees the new tombstone.
  auto updated = tombstones_[seg] != nullptr
                     ? std::make_shared<TombstoneSet>(*tombstones_[seg])
                     : std::make_shared<TombstoneSet>(segments_[seg]->num_nodes());
  if (updated->Contains(local)) return Status::OK();  // already deleted
  updated->MarkDeleted(local);
  tombstones_[seg] = std::move(updated);
  return PublishLocked();
}

Status IngestService::Refresh() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return SealLocked();
}

Status IngestService::Compact() {
  std::lock_guard<std::mutex> lock(write_mu_);
  FTS_RETURN_IF_ERROR(SealLocked());
  return CompactLocked();
}

Status IngestService::merger_status() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return merger_status_;
}

Status IngestService::SealLocked() {
  if (buffer_.empty()) return Status::OK();
  std::shared_ptr<const InvertedIndex> segment = buffer_.Seal(options_.build);
  segments_.push_back(segment);
  tombstones_.push_back(nullptr);
  const uint64_t seal_number = seals_++;
  FTS_RETURN_IF_ERROR(PublishLocked());
  if (!options_.spill_dir.empty()) {
    // Spill after publish: the segment serves from memory either way, and
    // a failed write degrades durability, not availability.
    FTS_RETURN_IF_ERROR(SaveSegmentAtomic(
        *segment,
        options_.spill_dir + "/segment-" + std::to_string(seal_number) + ".fts"));
  }
  return Status::OK();
}

Status IngestService::CompactLocked() {
  const bool any_deletes =
      std::any_of(tombstones_.begin(), tombstones_.end(),
                  [](const auto& t) { return t != nullptr; });
  if (segments_.size() <= 1 && !any_deletes) return Status::OK();
  std::vector<SegmentView> views;
  views.reserve(segments_.size());
  NodeId base = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    SegmentView v;
    v.index = segments_[i].get();
    v.base = base;
    v.tombstones = tombstones_[i].get();
    views.push_back(v);
    base += static_cast<NodeId>(segments_[i]->num_nodes());
  }
  FTS_ASSIGN_OR_RETURN(InvertedIndex merged,
                       MergeSegments(views, options_.build));
  segments_.assign(1, std::make_shared<const InvertedIndex>(std::move(merged)));
  tombstones_.assign(1, nullptr);
  return PublishLocked();
}

Status IngestService::PublishLocked() {
  FTS_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> next,
                       IndexSnapshot::Create(segments_, tombstones_,
                                             generation_ + 1));
  // Stats are lazy so that unscored ingest never pays for them. But while
  // queries score, a generation without stats would make the first of them
  // run the whole stats pass and the rest wait for it, so the writer
  // computes them before publishing. The readers of the generation being
  // replaced say which traffic runs; one nobody read (the writer outran
  // them) says nothing, and the last signal stands.
  switch (snapshot_->stats_demand()) {
    case IndexSnapshot::StatsDemand::kScored: scored_readers_ = true; break;
    case IndexSnapshot::StatsDemand::kUnscored: scored_readers_ = false; break;
    case IndexSnapshot::StatsDemand::kUnread: break;
  }
  if (scored_readers_) next->PrecomputeScoringStats();
  ++generation_;
  published_total_ = next->total_nodes();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  if (segments_.size() > options_.merge_factor) merge_cv_.notify_one();
  return Status::OK();
}

void IngestService::MergerLoop() {
  std::unique_lock<std::mutex> lock(write_mu_);
  while (true) {
    merge_cv_.wait(lock, [this] {
      return stop_ || segments_.size() > options_.merge_factor;
    });
    if (stop_) return;
    // Compaction holds the writer mutex — ingest waits, queries do not:
    // they keep acquiring the published snapshot through the leaf lock.
    const Status status = CompactLocked();
    if (!status.ok() && merger_status_.ok()) merger_status_ = status;
  }
}

}  // namespace fts

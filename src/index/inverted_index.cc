#include "index/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "index/block_posting_list.h"
#include "index/index_source.h"
#include "index/pair_index.h"
#include "index/tombstone_set.h"

namespace fts {

InvertedIndex::InvertedIndex()
    : block_any_list_(std::make_unique<BlockPostingList>()) {}
InvertedIndex::~InvertedIndex() = default;
InvertedIndex::InvertedIndex(InvertedIndex&&) noexcept = default;
InvertedIndex& InvertedIndex::operator=(InvertedIndex&&) noexcept = default;

void PostingList::Append(NodeId node, std::span<const PositionInfo> positions) {
  assert(entries_.empty() || entries_.back().node < node);
  PostingEntry e;
  e.node = node;
  e.pos_begin = static_cast<uint32_t>(positions_.size());
  e.pos_count = static_cast<uint32_t>(positions.size());
  positions_.insert(positions_.end(), positions.begin(), positions.end());
  entries_.push_back(e);
}

NodeId ListCursor::SeekEntry(NodeId target) {
  // A filtered cursor never rests on a tombstoned entry, so the
  // backward-seek early return inside SeekEntryUnfiltered stays sound.
  NodeId n = SeekEntryUnfiltered(target);
  while (tombstones_ != nullptr && n != kInvalidNode && tombstones_->Contains(n)) {
    n = NextEntryUnfiltered();
  }
  return n;
}

NodeId ListCursor::NextEntry() {
  NodeId n = NextEntryUnfiltered();
  while (tombstones_ != nullptr && n != kInvalidNode && tombstones_->Contains(n)) {
    n = NextEntryUnfiltered();
  }
  return n;
}

NodeId ListCursor::SeekEntryUnfiltered(NodeId target) {
  if (exhausted_) return kInvalidNode;
  if (started_ && node_ != kInvalidNode && node_ >= target) {
    return node_;  // backward (or in-place) seeks do not move the cursor
  }
  if (list_ == nullptr || list_->num_entries() == 0) {
    started_ = true;
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  // Binary search over the remaining entries for the first node >= target.
  size_t lo = started_ ? idx_ + 1 : 0;
  size_t hi = list_->num_entries();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (counters_ != nullptr) ++counters_->skip_checks;
    if (list_->entry(mid).node < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  started_ = true;
  if (lo >= list_->num_entries()) {
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  idx_ = lo;
  if (counters_ != nullptr) ++counters_->entries_scanned;
  node_ = list_->entry(idx_).node;
  return node_;
}

NodeId ListCursor::NextEntryUnfiltered() {
  if (exhausted_) return kInvalidNode;
  if (started_) {
    ++idx_;
  } else {
    started_ = true;
  }
  if (list_ == nullptr || idx_ >= list_->num_entries()) {
    exhausted_ = true;
    node_ = kInvalidNode;
    return kInvalidNode;
  }
  if (counters_ != nullptr) ++counters_->entries_scanned;
  node_ = list_->entry(idx_).node;
  return node_;
}

std::span<const PositionInfo> ListCursor::GetPositions() {
  assert(started_ && !exhausted_ && list_ != nullptr);
  // Positions are charged to EvalCounters by the consumer as they are
  // actually read (the pipelined engines may skip most of an entry).
  return list_->positions(list_->entry(idx_));
}

std::string IndexStats::ToString() const {
  return "cnodes=" + std::to_string(cnodes) +
         " total_positions=" + std::to_string(total_positions) +
         " pos_per_cnode=" + std::to_string(pos_per_cnode) +
         " entries_per_token=" + std::to_string(entries_per_token) +
         " pos_per_entry=" + std::to_string(pos_per_entry) +
         " avg_pos_per_cnode=" + std::to_string(avg_pos_per_cnode) +
         " avg_entries_per_token=" + std::to_string(avg_entries_per_token) +
         " avg_pos_per_entry=" + std::to_string(avg_pos_per_entry);
}

const BlockPostingList* InvertedIndex::block_list(TokenId token) const {
  return token < block_lists_.size() ? &block_lists_[token] : nullptr;
}

const BlockPostingList* InvertedIndex::block_list_for_text(
    std::string_view token) const {
  TokenId id = LookupToken(token);
  return id == kInvalidToken ? nullptr : block_list(id);
}

const BlockPostingList& InvertedIndex::block_any_list() const {
  return *block_any_list_;
}

uint32_t InvertedIndex::df(TokenId token) const {
  const BlockPostingList* l = block_list(token);
  return l ? static_cast<uint32_t>(l->num_entries()) : 0;
}

IndexStorage InvertedIndex::storage() const {
  if (source_ == nullptr) return IndexStorage::kOwned;
  return source_->is_mapped() ? IndexStorage::kMapped : IndexStorage::kHeapBuffer;
}

size_t InvertedIndex::MappedBytes() const {
  return source_ != nullptr && source_->is_mapped() ? source_->size() : 0;
}

size_t InvertedIndex::MemoryUsage() const {
  size_t bytes = sizeof(InvertedIndex);
  // A heap source buffer is resident in full (the lists view into it); an
  // mmap'd source is page-cache backed and excluded (see MappedBytes()).
  if (source_ != nullptr && !source_->is_mapped()) bytes += source_->size();
  bytes += block_lists_.capacity() * sizeof(BlockPostingList);
  for (const BlockPostingList& l : block_lists_) bytes += l.resident_bytes();
  bytes += sizeof(BlockPostingList) + block_any_list_->resident_bytes();
  bytes += token_texts_.capacity() * sizeof(std::string);
  for (const std::string& t : token_texts_) bytes += t.capacity();
  // Hash-map accounting is approximate: buckets plus one heap node per
  // entry (key string + id + chain pointers).
  bytes += token_ids_.bucket_count() * sizeof(void*);
  for (const auto& [text, id] : token_ids_) {
    bytes += sizeof(std::pair<const std::string, TokenId>) + text.capacity() +
             2 * sizeof(void*);
  }
  bytes += unique_tokens_.capacity() * sizeof(uint32_t);
  bytes += node_norms_.capacity() * sizeof(double);
  if (pair_index_ != nullptr) bytes += pair_index_->MemoryUsage();
  return bytes;
}

Status InvertedIndex::ValidateBlocks() const {
  const uint64_t cnodes = stats_.cnodes;
  const auto validate = [cnodes](const BlockPostingList& block) {
    std::vector<PostingEntry> entries;
    std::vector<PositionInfo> positions;
    uint64_t total_entries = 0;
    uint64_t total_positions = 0;
    bool have_prev = false;
    NodeId prev = 0;
    for (size_t b = 0; b < block.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(block.DecodeBlock(b, &entries, &positions));
      for (const PostingEntry& e : entries) {
        if (have_prev && e.node <= prev) {
          return Status::Corruption("non-increasing node ids across blocks");
        }
        // Node ids index the per-node scalar tables (unique_tokens_,
        // node_norms_) during scoring; an out-of-range id must never
        // survive loading.
        if (e.node >= cnodes) {
          return Status::Corruption("posting node id out of range");
        }
        prev = e.node;
        have_prev = true;
      }
      total_entries += entries.size();
      total_positions += positions.size();
    }
    if (total_entries != block.num_entries()) {
      return Status::Corruption("block entry total disagrees with list header");
    }
    if (total_positions != block.total_positions()) {
      return Status::Corruption("block position total disagrees with list header");
    }
    return Status::OK();
  };
  for (const BlockPostingList& l : block_lists_) {
    FTS_RETURN_IF_ERROR(validate(l));
  }
  FTS_RETURN_IF_ERROR(validate(*block_any_list_));
  if (pair_index_ != nullptr) {
    FTS_RETURN_IF_ERROR(pair_index_->Validate(cnodes));
  }
  return Status::OK();
}

Status InvertedIndex::FinishLists() {
  // Corpus shape statistics (paper Section 5.1.2 parameters). A block's
  // max_tf is its largest entry, so the maxima come from skip headers.
  const auto max_tf = [](const BlockPostingList& l) {
    uint32_t m = 0;
    for (const BlockPostingList::SkipEntry& s : l.skips()) m = std::max(m, s.max_tf);
    return m;
  };
  const size_t num_nodes = unique_tokens_.size();
  IndexStats& s = stats_;
  s.cnodes = num_nodes;
  s.total_positions = block_any_list_->total_positions();
  s.pos_per_cnode = max_tf(*block_any_list_);
  uint64_t total_entries = 0;
  uint64_t nonempty_lists = 0;
  std::vector<uint32_t> df(block_lists_.size(), 0);
  for (TokenId t = 0; t < block_lists_.size(); ++t) {
    const BlockPostingList& l = block_lists_[t];
    if (l.empty()) continue;
    df[t] = static_cast<uint32_t>(l.num_entries());
    ++nonempty_lists;
    total_entries += l.num_entries();
    s.entries_per_token = std::max(s.entries_per_token, df[t]);
    s.pos_per_entry = std::max(s.pos_per_entry, max_tf(l));
  }
  s.avg_pos_per_cnode =
      num_nodes == 0 ? 0 : static_cast<double>(s.total_positions) / num_nodes;
  s.avg_entries_per_token =
      nonempty_lists == 0 ? 0 : static_cast<double>(total_entries) / nonempty_lists;
  s.avg_pos_per_entry =
      total_entries == 0 ? 0 : static_cast<double>(s.total_positions) / total_entries;

  // TF-IDF norms from the finished list headers, through the same pass
  // snapshots run with global statistics.
  return ComputeNodeNorms(*this, df, num_nodes, nullptr, &node_norms_,
                          &min_uniq_norm_);
}

void InvertedIndex::BuildPairIndex(std::span<const TokenizedDocument> docs,
                                   const PairIndexOptions& opts) {
  if (opts.frequent_terms == 0) return;
  pair_index_ = std::make_unique<PairIndex>(PairIndex::Build(docs, *this, opts));
  if (pair_index_->num_keys() == 0) pair_index_.reset();
}

void InvertedIndex::RecomputeMinUniqNorm() {
  // The same product every TF-IDF LeafScore divides by — computed with the
  // identical expression so the minimum is an exact lower bound on any
  // denominator, making the derived impact upper bounds sound under IEEE
  // rounding (correctly rounded ops are monotone).
  double min_un = std::numeric_limits<double>::infinity();
  for (NodeId n = 0; n < node_norms_.size(); ++n) {
    const double un = std::max<uint32_t>(1, unique_tokens_[n]) * node_norms_[n];
    min_un = std::min(min_un, un);
  }
  min_uniq_norm_ = min_un;
}

Status ComputeNodeNorms(const InvertedIndex& index, std::span<const uint32_t> df,
                        uint64_t num_docs, const TombstoneSet* dead,
                        std::vector<double>* norms, double* min_uniq_norm) {
  std::vector<TokenId> by_text(index.vocabulary_size());
  std::iota(by_text.begin(), by_text.end(), TokenId{0});
  std::sort(by_text.begin(), by_text.end(), [&index](TokenId a, TokenId b) {
    return index.token_text(a) < index.token_text(b);
  });
  std::vector<double> sum_sq(index.num_nodes(), 0.0);
  std::vector<BlockPostingList::EntryRef> entries;
  for (const TokenId t : by_text) {
    if (df[t] == 0) continue;  // absent, or every occurrence tombstoned
    const BlockPostingList* list = index.block_list(t);
    if (list == nullptr || list->empty()) continue;
    const double idf =
        std::log(1.0 + static_cast<double>(num_docs) / static_cast<double>(df[t]));
    for (size_t b = 0; b < list->num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(list->DecodeBlockEntries(b, &entries));
      for (const BlockPostingList::EntryRef& e : entries) {
        const NodeId n = e.header.node;
        if (dead != nullptr && dead->Contains(n)) continue;
        const uint32_t uniq = index.unique_tokens(n);
        const double tf = static_cast<double>(e.header.pos_count) / uniq;
        sum_sq[n] += tf * idf * tf * idf;
      }
    }
  }
  norms->assign(index.num_nodes(), 1.0);
  *min_uniq_norm = std::numeric_limits<double>::infinity();
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    if (dead != nullptr && dead->Contains(n)) continue;  // never scored
    (*norms)[n] = sum_sq[n] > 0 ? std::sqrt(sum_sq[n]) : 1.0;
    const double un = std::max<uint32_t>(1, index.unique_tokens(n)) * (*norms)[n];
    *min_uniq_norm = std::min(*min_uniq_norm, un);
  }
  return Status::OK();
}

TokenId InvertedIndex::LookupToken(std::string_view token) const {
  auto it = token_ids_.find(std::string(token));
  return it == token_ids_.end() ? kInvalidToken : it->second;
}

}  // namespace fts

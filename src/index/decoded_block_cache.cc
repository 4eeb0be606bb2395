#include "index/decoded_block_cache.h"

#include <algorithm>

#include "index/shared_block_cache.h"

namespace fts {

std::shared_ptr<const DecodedBlock> DecodedBlock::Decode(
    const BlockPostingList& list, size_t block, EvalCounters* counters,
    Status* status) {
  auto decoded = std::make_shared<DecodedBlock>();
  Status s = list.DecodeBlockEntries(block, &decoded->entries, counters);
  if (!s.ok()) {
    if (status != nullptr && status->ok()) *status = std::move(s);
    return nullptr;
  }
  if (decoded->entries.empty()) return nullptr;
  return decoded;
}

size_t BlockLru::BlockBytes(const DecodedBlock& block) {
  return sizeof(DecodedBlock) +
         block.entries.capacity() * sizeof(BlockPostingList::EntryRef);
}

std::shared_ptr<const DecodedBlock> BlockLru::Find(const Key& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->block;
}

std::shared_ptr<const DecodedBlock> BlockLru::Insert(
    const Key& key, std::shared_ptr<const DecodedBlock> block) {
  auto [it, inserted] = map_.try_emplace(key);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->block;
  }
  if (map_.size() > capacity_) {
    ++evictions_;
    bytes_ -= BlockBytes(*lru_.back().block);
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  bytes_ += BlockBytes(*block);
  lru_.push_front(Slot{key, std::move(block)});
  it->second = lru_.begin();
  return lru_.front().block;
}

void BlockLru::Clear() {
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

bool DecodedBlockCache::PaysFor(const InvertedIndex& index, LeafReads reads) const {
  if (shared_ != nullptr) return true;
  std::sort(reads.tokens.begin(), reads.tokens.end());
  const auto distinct_end = std::unique(reads.tokens.begin(), reads.tokens.end());
  const bool reread = reads.rerun || reads.any_scans > 1 ||
                      distinct_end != reads.tokens.end();
  if (!reread) return false;
  size_t blocks = 0;
  for (auto t = reads.tokens.begin(); t != distinct_end; ++t) {
    const BlockPostingList* list = index.block_list_for_text(*t);
    if (list != nullptr) blocks += list->num_blocks();
  }
  if (reads.any_scans > 0) blocks += index.block_any_list().num_blocks();
  return blocks <= capacity();
}

bool DecodedBlockCache::Serves(const BlockPostingList& list) const {
  return list.num_blocks() <= capacity() ||
         (shared_ != nullptr && list.num_blocks() <= shared_->capacity_blocks());
}

std::shared_ptr<const DecodedBlock> DecodedBlockCache::GetOrDecode(
    const BlockPostingList& list, size_t block, EvalCounters* counters,
    Status* status) {
  if (shared_ != nullptr && list.num_blocks() > capacity()) {
    return shared_->GetOrDecode(list, block, counters, status);
  }
  const BlockLru::Key key{list.uid(), block};
  if (auto hit = table_.Find(key)) {
    if (counters != nullptr) ++counters->cache_hits;
    return hit;
  }
  if (counters != nullptr) ++counters->cache_misses;
  // Two-level lookup: an L1 miss consults the cross-query L2 before
  // decoding, so blocks another query already paid for are adopted into
  // this query's L1 without any decode work.
  auto decoded = shared_ != nullptr
                     ? shared_->GetOrDecode(list, block, counters, status)
                     : DecodedBlock::Decode(list, block, counters, status);
  if (decoded == nullptr) return nullptr;
  return table_.Insert(key, std::move(decoded));
}

}  // namespace fts

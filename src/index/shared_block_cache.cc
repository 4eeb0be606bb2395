#include "index/shared_block_cache.h"

namespace fts {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SharedBlockCache::SharedBlockCache(Options options) {
  const size_t shards = RoundUpPow2(options.shards == 0 ? 1 : options.shards);
  capacity_blocks_ =
      options.capacity_blocks < shards ? shards : options.capacity_blocks;
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(capacity_blocks_ / shards));
  }
}

std::shared_ptr<const DecodedBlock> SharedBlockCache::GetOrDecode(
    const BlockPostingList& list, size_t block, EvalCounters* counters,
    Status* status) {
  const BlockLru::Key key{list.uid(), block};
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto hit = shard.table.Find(key)) {
      if (counters != nullptr) ++counters->shared_cache_hits;
      return hit;
    }
  }

  // Miss: decode outside the lock so a slow (cold, first-touch validated)
  // decode never serializes the shard. Two threads racing here both decode;
  // the insert resolves the race in favor of whichever published first.
  if (counters != nullptr) ++counters->shared_cache_misses;
  auto decoded = DecodedBlock::Decode(list, block, counters, status);
  if (decoded == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.table.Insert(key, std::move(decoded));
}

SharedBlockCache::Stats SharedBlockCache::stats() const {
  Stats out;
  out.shards.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    const BlockLru& table = shards_[i]->table;
    out.evictions += table.evictions();
    out.shards[i].keys = table.size();
    out.shards[i].bytes = table.bytes();
    out.resident_blocks += out.shards[i].keys;
    out.resident_bytes += out.shards[i].bytes;
  }
  return out;
}

}  // namespace fts

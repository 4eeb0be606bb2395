// Cross-query shared cache of bulk-decoded posting blocks (the L2 level
// of the two-level block-cache hierarchy; the per-query DecodedBlockCache
// is L1).
//
// Under concurrent serving, many queries evaluate over one shared,
// immutable InvertedIndex. The hot blocks — stop-word-like token lists,
// the IL_ANY prefix, the first blocks every zig-zag lands in — are
// re-decoded by every query that touches them, and on an mmap-served index
// each such decode may additionally pay first-touch checksum validation.
// A SharedBlockCache amortizes that work across queries: the first query
// to touch a block bulk-decodes (and, lazily loaded, validates) it once
// and publishes the decoded form; every later query on any thread gets it
// for a hash lookup.
//
// Concurrency model: the cache is sharded by key hash, each shard one
// BlockLru (index/decoded_block_cache.h, the L1's table too) under its own
// mutex, so concurrent queries contend only when they hash to the same
// shard. Blocks are handed out as shared_ptr<const DecodedBlock>, so an
// eviction never invalidates a reader — a cursor holding the pointer keeps
// the block alive until it moves on. Decodes run *outside* the shard lock
// (two threads racing on the same cold block may both decode it; the
// duplicate work is benign, the loser adopts the winner's entry), so the
// lock is only ever held for map/LRU bookkeeping. Hits and misses are
// charged to the caller's EvalCounters only; the cache keeps no tally.
//
// Lifetime contract: keys are (list uid, block index). Uids are
// process-unique and never reused, so one cache may safely outlive any
// number of index generations (live ingestion swaps snapshots under a
// long-lived SearchService cache): entries of a retired segment's lists
// can never be served for new lists — they simply age out of the LRU.
// Entries hold EntryRef offsets (no pointers into payload bytes), so a
// stale entry is dead weight, not a dangling reference; cursors that *use*
// a block always hold the owning list alive through their snapshot.

#ifndef FTS_INDEX_SHARED_BLOCK_CACHE_H_
#define FTS_INDEX_SHARED_BLOCK_CACHE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "index/decoded_block_cache.h"

namespace fts {

/// Sharded, thread-safe LRU cache of DecodedBlocks shared by every query
/// (and every thread) evaluating over one index.
class SharedBlockCache {
 public:
  struct Options {
    /// Total block budget across all shards (≈ capacity * block_size entry
    /// headers resident; the 4096-block default is ~6 MB of EntryRefs on
    /// the bench corpus).
    size_t capacity_blocks = 4096;
    /// Shard count, rounded up to a power of two. More shards, less
    /// contention; per-shard LRU precision degrades gracefully.
    size_t shards = 16;
  };

  /// Aggregate gauges, readable concurrently with serving traffic.
  struct Stats {
    uint64_t evictions = 0;
    size_t resident_blocks = 0;
    /// Decoded bytes resident across all shards (BlockLru::BlockBytes
    /// summed). Eviction-driven, so it tracks what the cache holds *now*,
    /// not a high-water mark. Readers holding evicted blocks via
    /// shared_ptr are not counted (their memory is charged to the query
    /// keeping them alive).
    size_t resident_bytes = 0;
    /// Per-shard occupancy, index = shard number. Shard imbalance here
    /// (one shard pinned at capacity while others sit empty) is the
    /// monitoring signal that the key mix is skewed or the shard count is
    /// wrong for the workload.
    struct ShardStats {
      size_t keys = 0;
      size_t bytes = 0;
    };
    std::vector<ShardStats> shards;
  };

  SharedBlockCache() : SharedBlockCache(Options()) {}
  explicit SharedBlockCache(Options options);

  SharedBlockCache(const SharedBlockCache&) = delete;
  SharedBlockCache& operator=(const SharedBlockCache&) = delete;

  /// Returns `block` of `list` decoded, from the owning shard if cached
  /// (charging EvalCounters::shared_cache_hits) or by bulk-decoding outside
  /// the shard lock and publishing it (shared_cache_misses plus the decode
  /// counters). Returns nullptr for an empty or malformed block, exactly
  /// like DecodedBlock::Decode. Safe to call from any thread.
  std::shared_ptr<const DecodedBlock> GetOrDecode(const BlockPostingList& list,
                                                  size_t block,
                                                  EvalCounters* counters,
                                                  Status* status = nullptr);

  /// Point-in-time aggregate across shards, each read under its lock: the
  /// snapshot is consistent enough for monitoring, not a linearizable cut.
  Stats stats() const;

  size_t capacity_blocks() const { return capacity_blocks_; }

 private:
  struct Shard {
    explicit Shard(size_t capacity) : table(capacity) {}
    std::mutex mu;
    BlockLru table;
  };

  Shard& ShardFor(const BlockLru::Key& key) {
    return *shards_[(BlockLru::Hash(key) >> 48) & shard_mask_];
  }

  size_t capacity_blocks_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fts

#endif  // FTS_INDEX_SHARED_BLOCK_CACHE_H_

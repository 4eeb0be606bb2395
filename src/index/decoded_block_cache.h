// Decoded-block caches: the one LRU table both cache levels are built on,
// and the per-query L1 in front of the cross-query L2.
//
// Hot lists — stop-word-like tokens in a zig-zag AND, the lists an NPRED
// query re-scans once per ordering permutation, a token that appears twice
// in one query — would otherwise be block-decoded once per cursor. A
// DecodedBlockCache lets every BlockListCursor of one query evaluation
// share the decoded (ids + entry headers) form of a block, keyed by
// (list uid, block index) — the uid, not the address, so a cache that
// outlives a segment generation can never serve a retired list's blocks
// for a new list allocated at the same address. Entries are handed out as
// shared_ptr so a cached block stays valid for any cursor still reading it
// after eviction.
//
// The cache is deliberately small (default 128 blocks ≈ 16k entry headers)
// and scoped to a single ExecContext — one query, or one service worker's
// run of queries — which is always single-threaded, so it takes no locks.
// It is the L1 level of a two-level hierarchy: when a cross-query
// SharedBlockCache (L2, index/shared_block_cache.h) stands behind it, an
// L1 miss falls through to the L2 before decoding, so hot blocks decode
// once per *process*, not once per query. Both levels keep their blocks in
// a BlockLru; neither keeps a hit/miss tally of its own — lookups are
// charged to EvalCounters::{cache_hits,cache_misses} (L1) and
// {shared_cache_hits,shared_cache_misses} (L2), and only true misses pay
// decode work (blocks_decoded / blocks_bulk_decoded / entries_decoded,
// charged by BlockPostingList::DecodeBlockEntries).
//
// The L1 knows both capacities, so it holds both cache rules: whether a
// query attaches it (PaysFor) and which level serves a list (Serves,
// GetOrDecode).

#ifndef FTS_INDEX_DECODED_BLOCK_CACHE_H_
#define FTS_INDEX_DECODED_BLOCK_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "index/block_posting_list.h"
#include "index/inverted_index.h"

namespace fts {

class SharedBlockCache;  // index/shared_block_cache.h

/// One block's bulk-decoded entry headers (positions stay compressed; the
/// EntryRefs locate each entry's position bytes for lazy decode).
struct DecodedBlock {
  std::vector<BlockPostingList::EntryRef> entries;

  /// Bulk-decodes `block` of `list` for a cache (DecodeBlockEntries
  /// charges the decode counters). Returns nullptr for an empty or
  /// malformed block; a malformed one (first-touch validation failure on a
  /// lazily loaded index) also reports its error through `status` when
  /// given — callers treat both exactly like a failed direct decode.
  static std::shared_ptr<const DecodedBlock> Decode(
      const BlockPostingList& list, size_t block, EvalCounters* counters,
      Status* status);
};

/// The LRU table of both cache levels: decoded blocks keyed by (list uid,
/// block index), most recently used first, with a resident-byte tally and
/// an eviction count. Not thread-safe — the L1 owns one outright, each L2
/// shard one under its mutex.
class BlockLru {
 public:
  using Key = std::pair<uint64_t, size_t>;  // (list uid, block index)

  /// Splitmix-style 64-bit mix of a key. The map hashes with its low bits;
  /// the L2 picks a shard with its top ones, so the two stay independent.
  static uint64_t Hash(const Key& k) {
    uint64_t h = k.first ^
                 (static_cast<uint64_t>(k.second) * 0x9E3779B97F4A7C15ull);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return h;
  }

  /// Accounting size of one cached block (EntryRef storage by capacity
  /// plus the block struct itself), the same rule as
  /// InvertedIndex::MemoryUsage — the unit the resident-bytes gauges count.
  static size_t BlockBytes(const DecodedBlock& block);

  explicit BlockLru(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The block under `key`, made most recently used; nullptr when absent.
  std::shared_ptr<const DecodedBlock> Find(const Key& key);

  /// Publishes `block` under `key`, evicting the least recently used block
  /// when full, and returns the resident block. A block already under
  /// `key` (another thread's decode of the same block won the race) is
  /// kept and returned instead: the index is immutable, so both decodes
  /// are identical.
  std::shared_ptr<const DecodedBlock> Insert(
      const Key& key, std::shared_ptr<const DecodedBlock> block);

  /// Drops every block, keeping the allocated bucket array warm.
  void Clear();

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  /// Decoded bytes resident now (BlockBytes summed over the table).
  size_t bytes() const { return bytes_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const { return static_cast<size_t>(Hash(k)); }
  };

  struct Slot {
    Key key;
    std::shared_ptr<const DecodedBlock> block;
  };

  size_t capacity_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> map_;
};

/// The leaf list reads of one evaluation pass — what the per-query cache
/// rule reads. A list is read twice when a token repeats, when IL_ANY is
/// scanned more than once, or when the caller reruns the whole pass.
struct LeafReads {
  std::vector<std::string> tokens;  // leaf token spellings, repeats kept
  int any_scans = 0;                // IL_ANY (HasPos) scans
  bool rerun = false;               // every leaf is read again (NPRED)
};

/// The per-query (L1) cache of DecodedBlocks shared by the cursors of one
/// query, in front of an optional cross-query L2.
class DecodedBlockCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  /// `shared`, when non-null, is the L2 misses fall through to; it must
  /// outlive every lookup made through this cache.
  explicit DecodedBlockCache(size_t capacity = kDefaultCapacity,
                             SharedBlockCache* shared = nullptr)
      : table_(capacity), shared_(shared) {}

  DecodedBlockCache(const DecodedBlockCache&) = delete;
  DecodedBlockCache& operator=(const DecodedBlockCache&) = delete;

  /// Drops every cached block. By default a worker's ExecContext keeps its
  /// L1 across queries (same immutable index, still one thread);
  /// ExecContext::Reset calls this.
  void Clear() { table_.Clear(); }

  /// The per-query rule every engine reaches through
  /// ExecContext::BlockCacheFor: true when an L2 stands behind this cache
  /// (single-scan queries still want the cross-query reuse, and the L1 in
  /// front of it dedupes shard-lock traffic within the query), or when
  /// some list of `reads` is read twice and their distinct lists (plus
  /// IL_ANY when scanned) fit this cache. Otherwise every rescan would
  /// cycle the LRU, and single-scan queries skip the per-block
  /// bookkeeping entirely.
  bool PaysFor(const InvertedIndex& index, LeafReads reads) const;

  /// True when cursors over `list` read through this cache: the list fits
  /// the L1, or the L2 behind it. A list longer than both would cycle
  /// every LRU on a sequential pass, so its cursors decode into their
  /// arena.
  bool Serves(const BlockPostingList& list) const;

  /// Returns `block` of `list` decoded. A list that fits the L1 is looked
  /// up here (charging a hit, or a miss that falls through to the L2 or
  /// decodes); a longer one would cycle the L1's LRU, so it goes to the L2
  /// alone when one is attached. Returns nullptr if the block is empty or
  /// malformed, exactly like DecodedBlock::Decode.
  std::shared_ptr<const DecodedBlock> GetOrDecode(const BlockPostingList& list,
                                                  size_t block,
                                                  EvalCounters* counters,
                                                  Status* status = nullptr);

  size_t size() const { return table_.size(); }
  size_t capacity() const { return table_.capacity(); }

 private:
  BlockLru table_;
  SharedBlockCache* shared_;  // L2 fallthrough, nullable
};

}  // namespace fts

#endif  // FTS_INDEX_DECODED_BLOCK_CACHE_H_

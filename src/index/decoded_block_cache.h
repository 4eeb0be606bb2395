// Per-query LRU cache of bulk-decoded posting blocks.
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
// SharedBlockCache (L2, index/shared_block_cache.h) is attached via
// set_shared(), an L1 miss falls through to L2 before decoding, so hot
// blocks decode once per *process*, not once per query. Hits and misses
// are charged to EvalCounters::{cache_hits,cache_misses} (L1) and
// {shared_cache_hits,shared_cache_misses} (L2); only true misses pay
// decode work (blocks_decoded / blocks_bulk_decoded / entries_decoded).
// Cursors bypass L1 for lists with more blocks than its capacity — a
// sequential pass over such a list would cycle the LRU (every later
// re-read a miss) while paying allocation and bookkeeping per block — but
// still consult L2 for them when one is attached (cross-query reuse is
// exactly what long cold scans want); lists too big for L2 as well decode
// into the cursor arena.

#ifndef FTS_INDEX_DECODED_BLOCK_CACHE_H_
#define FTS_INDEX_DECODED_BLOCK_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "index/block_posting_list.h"
#include "index/inverted_index.h"

namespace fts {

class SharedBlockCache;  // index/shared_block_cache.h

/// One block's bulk-decoded entry headers (positions stay compressed; the
/// EntryRefs locate each entry's position bytes for lazy decode).
struct DecodedBlock {
  std::vector<BlockPostingList::EntryRef> entries;
};

/// Small LRU cache of DecodedBlocks shared by the cursors of one query.
class DecodedBlockCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit DecodedBlockCache(size_t capacity = kDefaultCapacity,
                             SharedBlockCache* shared = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity), shared_(shared) {}

  DecodedBlockCache(const DecodedBlockCache&) = delete;
  DecodedBlockCache& operator=(const DecodedBlockCache&) = delete;

  /// Attaches (or detaches, with nullptr) the cross-query L2 cache misses
  /// fall through to. The L2 must outlive every lookup made through this
  /// cache.
  void set_shared(SharedBlockCache* shared) { shared_ = shared; }
  SharedBlockCache* shared() const { return shared_; }

  /// Drops every cached block and zeroes the hit/miss tallies, keeping the
  /// allocated bucket arrays warm. Service workers call this between
  /// queries when per-query L1 semantics are wanted; by default a worker's
  /// ExecContext keeps its L1 across queries (same immutable index, still
  /// one thread).
  void Clear() {
    lru_.clear();
    map_.clear();
    hits_ = 0;
    misses_ = 0;
  }

  /// True when the distinct lists named by `tokens` (plus IL_ANY when
  /// `any_scans` > 0) together fit in `capacity` blocks — the precondition
  /// for the cache to hold a whole rescan working set. When they do not
  /// fit, every rescan cycles the LRU (all misses plus bookkeeping), so
  /// callers should not attach a cache.
  static bool FitsWorkingSet(const InvertedIndex& index,
                             std::span<const std::string> tokens, int any_scans,
                             size_t capacity = kDefaultCapacity);

  /// The single cache-attachment decision shared by every engine: attach
  /// for a query whose leaf scans read `tokens` (with `any_scans` IL_ANY
  /// reads) only when some list is read twice — a duplicated token, or
  /// more than one ANY scan — AND the working set fits (FitsWorkingSet).
  /// Single-scan queries skip the per-block bookkeeping entirely.
  static bool ShouldAttach(const InvertedIndex& index,
                           std::vector<std::string> tokens, int any_scans,
                           size_t capacity = kDefaultCapacity);

  /// Returns `block` of `list` decoded, from cache if present (charging a
  /// hit) or by bulk-decoding and inserting it (charging a miss plus the
  /// decode counters). Returns nullptr if the block is empty or malformed —
  /// callers treat that exactly like a failed direct decode. A malformed
  /// block (first-touch validation failure on a lazily loaded index)
  /// additionally reports its decode error through `status` when given.
  std::shared_ptr<const DecodedBlock> GetOrDecode(const BlockPostingList& list,
                                                  size_t block,
                                                  EvalCounters* counters,
                                                  Status* status = nullptr);

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  using Key = std::pair<uint64_t, size_t>;  // (list uid, block index)

  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splitmix-style mix of the list uid and block index.
      uint64_t h = k.first ^
                   (static_cast<uint64_t>(k.second) * 0x9E3779B97F4A7C15ull);
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  struct Slot {
    Key key;
    std::shared_ptr<const DecodedBlock> block;
  };

  size_t capacity_;
  SharedBlockCache* shared_;  // L2 fallthrough, nullable
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> map_;
};

}  // namespace fts

#endif  // FTS_INDEX_DECODED_BLOCK_CACHE_H_

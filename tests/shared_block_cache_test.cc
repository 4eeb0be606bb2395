// SharedBlockCache (cross-query L2) unit and concurrency tests: hit/miss
// accounting, eviction keepalive via shared_ptr handout, the two-level
// L1→L2 fallthrough, the cursor's four routes through the two levels, and
// a multi-threaded hammer over a deliberately tiny cache (eviction churn
// while readers hold blocks).

#include "index/shared_block_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"
#include "raw_postings.h"

namespace fts {
namespace {

/// A list of `entries` entries in blocks of `block_size`, one position per
/// entry, node ids 0,2,4,...
OwnedBlockList MakeList(uint32_t block_size, uint32_t entries) {
  BlockListWriter list(block_size);
  for (uint32_t i = 0; i < entries; ++i) {
    PositionInfo p{i + 1, i / 7, i / 19};
    list.Append(static_cast<NodeId>(2 * i), {&p, 1});
  }
  return OwnedBlockList(std::move(list));
}

TEST(SharedBlockCacheTest, MissDecodesThenHits) {
  OwnedBlockList list = MakeList(8, 64);  // 8 blocks
  SharedBlockCache cache;
  EvalCounters counters;

  auto b0 = cache.GetOrDecode(list, 0, &counters);
  ASSERT_NE(b0, nullptr);
  EXPECT_EQ(b0->entries.size(), 8u);
  EXPECT_EQ(b0->entries[0].header.node, 0u);
  EXPECT_EQ(counters.shared_cache_misses, 1u);
  EXPECT_EQ(counters.shared_cache_hits, 0u);
  EXPECT_EQ(counters.blocks_decoded, 1u);

  auto again = cache.GetOrDecode(list, 0, &counters);
  EXPECT_EQ(again.get(), b0.get());
  EXPECT_EQ(counters.shared_cache_hits, 1u);
  EXPECT_EQ(counters.blocks_decoded, 1u);  // hit decodes nothing

  EXPECT_EQ(counters.shared_cache_misses, 1u);
  EXPECT_EQ(cache.stats().resident_blocks, 1u);
}

TEST(SharedBlockCacheTest, EvictionNeverInvalidatesReaders) {
  OwnedBlockList list = MakeList(4, 512);  // 128 blocks
  SharedBlockCache::Options options;
  options.capacity_blocks = 8;
  options.shards = 1;  // single shard: strict LRU, deterministic eviction
  SharedBlockCache cache(options);

  auto held = cache.GetOrDecode(list, 0, nullptr);
  ASSERT_NE(held, nullptr);
  // Push far more blocks than capacity through the cache.
  for (size_t b = 1; b < list.num_blocks(); ++b) {
    ASSERT_NE(cache.GetOrDecode(list, b, nullptr), nullptr);
  }
  EXPECT_LE(cache.stats().resident_blocks, 8u);
  EXPECT_GT(cache.stats().evictions, 0u);
  // The held block was evicted long ago; the shared_ptr keeps it valid.
  EXPECT_EQ(held->entries.size(), 4u);
  EXPECT_EQ(held->entries[3].header.node, 6u);
}

TEST(SharedBlockCacheTest, ResidentBytesTrackInsertAndEviction) {
  OwnedBlockList list = MakeList(4, 64);  // 16 blocks
  SharedBlockCache::Options options;
  options.capacity_blocks = 4;
  options.shards = 1;  // single shard: strict LRU, deterministic eviction
  SharedBlockCache cache(options);

  // Empty cache: every gauge at zero, one shard reported.
  SharedBlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.resident_blocks, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].keys, 0u);
  EXPECT_EQ(stats.shards[0].bytes, 0u);

  // Insertions: the byte gauge is the exact sum of BlockBytes over the
  // resident blocks, and the per-shard rows sum to the totals.
  std::vector<std::shared_ptr<const DecodedBlock>> held;
  size_t expected_bytes = 0;
  for (size_t b = 0; b < 3; ++b) {
    auto block = cache.GetOrDecode(list, b, nullptr);
    ASSERT_NE(block, nullptr);
    expected_bytes += BlockLru::BlockBytes(*block);
    held.push_back(std::move(block));
  }
  stats = cache.stats();
  EXPECT_EQ(stats.resident_blocks, 3u);
  EXPECT_EQ(stats.resident_bytes, expected_bytes);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].keys, 3u);
  EXPECT_EQ(stats.shards[0].bytes, expected_bytes);

  // Overflow the capacity: evictions must release the evicted blocks'
  // bytes — the gauge tracks residency, not lifetime (readers holding
  // evicted blocks keep the memory alive but it is no longer the cache's).
  for (size_t b = 3; b < list.num_blocks(); ++b) {
    ASSERT_NE(cache.GetOrDecode(list, b, nullptr), nullptr);
  }
  stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  ASSERT_EQ(stats.resident_blocks, 4u);
  size_t resident_sum = 0;
  for (size_t b = list.num_blocks() - 4; b < list.num_blocks(); ++b) {
    auto block = cache.GetOrDecode(list, b, nullptr);  // LRU tail: all hits
    ASSERT_NE(block, nullptr);
    resident_sum += BlockLru::BlockBytes(*block);
  }
  EXPECT_EQ(cache.stats().resident_bytes, resident_sum);
  EXPECT_EQ(cache.stats().shards[0].bytes, resident_sum);
}

TEST(SharedBlockCacheTest, L1MissFallsThroughToL2) {
  OwnedBlockList list = MakeList(8, 64);
  SharedBlockCache l2;
  EvalCounters first;
  DecodedBlockCache l1_a(DecodedBlockCache::kDefaultCapacity, &l2);
  auto b = l1_a.GetOrDecode(list, 2, &first);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(first.cache_misses, 1u);         // L1 cold
  EXPECT_EQ(first.shared_cache_misses, 1u);  // L2 cold: decoded once
  EXPECT_EQ(first.blocks_decoded, 1u);

  // A different query (fresh L1) adopts the block from L2 without decoding.
  EvalCounters second;
  DecodedBlockCache l1_b(DecodedBlockCache::kDefaultCapacity, &l2);
  auto adopted = l1_b.GetOrDecode(list, 2, &second);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted.get(), b.get());
  EXPECT_EQ(second.cache_misses, 1u);       // its L1 was cold
  EXPECT_EQ(second.shared_cache_hits, 1u);  // but L2 served it
  EXPECT_EQ(second.blocks_decoded, 0u);

  // Within one query, the L1 short-circuits: no further L2 traffic.
  EvalCounters third;
  auto l1_hit = l1_b.GetOrDecode(list, 2, &third);
  EXPECT_EQ(l1_hit.get(), b.get());
  EXPECT_EQ(third.cache_hits, 1u);
  EXPECT_EQ(third.shared_cache_hits, 0u);
}

/// The cache traffic of one full cursor pass over a list.
struct PassCounts {
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t shared_cache_hits;
  uint64_t shared_cache_misses;
  uint64_t blocks_decoded;
};

PassCounts ScanOnce(const BlockPostingList& list, DecodedBlockCache* l1) {
  EvalCounters c;
  BlockListCursor cursor(&list, &c, l1);
  while (cursor.NextEntry() != kInvalidNode) {
  }
  return {c.cache_hits, c.cache_misses, c.shared_cache_hits,
          c.shared_cache_misses, c.blocks_decoded};
}

void ExpectPass(const PassCounts& got, const PassCounts& want,
                const std::string& what) {
  EXPECT_EQ(got.cache_hits, want.cache_hits) << what;
  EXPECT_EQ(got.cache_misses, want.cache_misses) << what;
  EXPECT_EQ(got.shared_cache_hits, want.shared_cache_hits) << what;
  EXPECT_EQ(got.shared_cache_misses, want.shared_cache_misses) << what;
  EXPECT_EQ(got.blocks_decoded, want.blocks_decoded) << what;
}

TEST(SharedBlockCacheTest, CursorRoutesEachListToOneLevel) {
  // The cursor's four routes for a list, by its block count against the
  // two capacities (L1 = 16 blocks here, L2 = 4096 or 32): a list that
  // fits the L1 reads through it (and, on an L1 miss, through the L2 when
  // one is attached); a list too big for the L1 reads through the L2
  // alone; a list too big for both decodes into the cursor's own arena.
  // "warm" rescans with the same L1; "next" is a later query — a fresh L1
  // in front of the same L2.
  struct Route {
    const char* name;
    uint32_t entries;          // 4 entries a block
    size_t l2_capacity;        // 0 = no L2 attached
    PassCounts cold, warm, next;
  };
  const Route routes[] = {
      {"L1 only", 32, 0,
       {0, 8, 0, 0, 8}, {8, 0, 0, 0, 0}, {0, 8, 0, 0, 8}},
      {"L1 miss to L2", 32, 4096,
       {0, 8, 0, 8, 8}, {8, 0, 0, 0, 0}, {0, 8, 8, 0, 0}},
      {"L2 only", 256, 4096,
       {0, 0, 0, 64, 64}, {0, 0, 64, 0, 0}, {0, 0, 64, 0, 0}},
      {"arena", 256, 32,
       {0, 0, 0, 0, 64}, {0, 0, 0, 0, 64}, {0, 0, 0, 0, 64}},
  };
  for (const Route& route : routes) {
    OwnedBlockList list = MakeList(4, route.entries);
    std::unique_ptr<SharedBlockCache> l2;
    if (route.l2_capacity != 0) {
      SharedBlockCache::Options options;
      options.capacity_blocks = route.l2_capacity;
      options.shards = 1;
      l2 = std::make_unique<SharedBlockCache>(options);
    }
    DecodedBlockCache l1(/*capacity=*/16, l2.get());
    ExpectPass(ScanOnce(list, &l1), route.cold, std::string(route.name) + " cold");
    ExpectPass(ScanOnce(list, &l1), route.warm, std::string(route.name) + " warm");
    DecodedBlockCache next_l1(/*capacity=*/16, l2.get());
    ExpectPass(ScanOnce(list, &next_l1), route.next,
               std::string(route.name) + " next");
  }
}

TEST(SharedBlockCacheTest, ConcurrentHammerUnderEvictionChurn) {
  // 8 threads, several lists, a cache an order of magnitude smaller than
  // the working set: every lookup races decodes, inserts, and evictions.
  // Under TSan this is the L2's data-race proof; everywhere it pins that
  // whatever a thread gets back is the correct decoded block.
  std::vector<OwnedBlockList> lists;
  for (int l = 0; l < 4; ++l) lists.push_back(MakeList(4, 240));
  SharedBlockCache::Options options;
  options.capacity_blocks = 16;
  options.shards = 2;
  SharedBlockCache cache(options);

  std::vector<std::thread> threads;
  std::vector<EvalCounters> counters(8);
  std::atomic<int> wrong{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t * 31 + 7);
      for (int i = 0; i < 500; ++i) {
        const BlockPostingList& list = lists[rng.Uniform(lists.size())];
        const size_t block = rng.Uniform(list.num_blocks());
        auto decoded = cache.GetOrDecode(list, block, &counters[t]);
        if (decoded == nullptr || decoded->entries.size() != 4 ||
            decoded->entries[0].header.node !=
                static_cast<NodeId>(2 * (4 * block))) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EvalCounters total;
  for (const EvalCounters& c : counters) total.MergeFrom(c);
  EXPECT_EQ(total.shared_cache_hits + total.shared_cache_misses, 8u * 500u);
  EXPECT_LE(cache.stats().resident_blocks, 16u);
}

}  // namespace
}  // namespace fts

#include "index/block_posting_list.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/varint_simd.h"
#include "index/decoded_block_cache.h"
#include "index/index_builder.h"
#include "index/index_source.h"
#include "index/shared_block_cache.h"
#include "workload/corpus_gen.h"

#include "random_workload.h"
#include "raw_postings.h"

namespace fts {
namespace {

PostingList MakeRawList(uint32_t num_entries, uint32_t stride, uint32_t pos_per_entry) {
  PostingList raw;
  for (uint32_t i = 0; i < num_entries; ++i) {
    std::vector<PositionInfo> positions;
    for (uint32_t j = 0; j < pos_per_entry; ++j) {
      positions.push_back(PositionInfo{10 * j + i % 7, j / 3, j / 6});
    }
    raw.Append(1 + i * stride, positions);
  }
  return raw;
}

void ExpectListsEqual(const PostingList& a, const PostingList& b) {
  ASSERT_EQ(a.num_entries(), b.num_entries());
  ASSERT_EQ(a.total_positions(), b.total_positions());
  for (size_t i = 0; i < a.num_entries(); ++i) {
    EXPECT_EQ(a.entry(i).node, b.entry(i).node);
    auto pa = a.positions(a.entry(i));
    auto pb = b.positions(b.entry(i));
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(pa[j].offset, pb[j].offset);
      EXPECT_EQ(pa[j].sentence, pb[j].sentence);
      EXPECT_EQ(pa[j].paragraph, pb[j].paragraph);
    }
  }
}

TEST(BlockPostingListTest, RoundTripsThroughMaterialize) {
  PostingList raw = MakeRawList(1000, 3, 5);
  OwnedBlockList block = FromPostingList(raw, 128);
  EXPECT_EQ(block.num_entries(), raw.num_entries());
  EXPECT_EQ(block.total_positions(), raw.total_positions());
  EXPECT_EQ(block.num_blocks(), (1000 + 127) / 128);
  ExpectListsEqual(raw, Materialize(block));
}

TEST(BlockPostingListTest, PartialTailBlockIsFlushed) {
  PostingList raw = MakeRawList(130, 2, 1);
  OwnedBlockList block = FromPostingList(raw, 128);
  ASSERT_EQ(block.num_blocks(), 2u);
  EXPECT_EQ(block.skip(0).entry_count, 128u);
  EXPECT_EQ(block.skip(1).entry_count, 2u);
  ExpectListsEqual(raw, Materialize(block));
}

TEST(BlockPostingListTest, SkipHeadersCoverBlocks) {
  PostingList raw = MakeRawList(300, 2, 1);  // nodes 1, 3, 5, ...
  OwnedBlockList block = FromPostingList(raw, 100);
  ASSERT_EQ(block.num_blocks(), 3u);
  EXPECT_EQ(block.skip(0).max_node, raw.entry(99).node);
  EXPECT_EQ(block.skip(1).max_node, raw.entry(199).node);
  EXPECT_EQ(block.skip(2).max_node, raw.entry(299).node);
  EXPECT_EQ(block.skip(0).byte_offset, 0u);
  EXPECT_LT(block.skip(1).byte_offset, block.skip(2).byte_offset);
}

TEST(BlockPostingListTest, HeaderOnlyDecodeMatchesFullDecode) {
  PostingList raw = MakeRawList(250, 5, 4);
  OwnedBlockList block = FromPostingList(raw, 64);
  std::vector<BlockPostingList::EntryRef> refs;
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions, entry_positions;
  for (size_t b = 0; b < block.num_blocks(); ++b) {
    ASSERT_TRUE(block.DecodeBlockEntries(b, &refs).ok());
    ASSERT_TRUE(block.DecodeBlock(b, &entries, &positions).ok());
    ASSERT_EQ(refs.size(), entries.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      EXPECT_EQ(refs[i].header.node, entries[i].node);
      EXPECT_EQ(refs[i].header.pos_count, entries[i].pos_count);
      ASSERT_TRUE(block.DecodePositions(refs[i], &entry_positions).ok());
      ASSERT_EQ(entry_positions.size(), entries[i].pos_count);
      for (size_t j = 0; j < entry_positions.size(); ++j) {
        EXPECT_EQ(entry_positions[j], positions[entries[i].pos_begin + j]);
      }
    }
  }
}

TEST(BlockPostingListTest, AppendEncodedMatchesAppend) {
  // Entries copied by their position bytes under new ids encode exactly as
  // Append encodes the decoded positions under those ids, in sparse and
  // in dense (bitset) blocks: position bytes never depend on node ids.
  for (const uint32_t stride : {1u, 2u, 9u}) {
    const PostingList raw = MakeRawList(300, stride, 4);
    const OwnedBlockList source = FromPostingList(raw);
    BlockListWriter copied_writer, appended_writer;
    std::vector<BlockPostingList::EntryRef> refs;
    std::vector<PositionInfo> positions;
    for (size_t b = 0; b < source.num_blocks(); ++b) {
      ASSERT_TRUE(source.DecodeBlockEntries(b, &refs).ok());
      for (const BlockPostingList::EntryRef& e : refs) {
        const NodeId node = e.header.node + 5;
        copied_writer.AppendEncoded(
            node, e.header.pos_count,
            source.data().substr(e.pos_byte_begin, e.pos_byte_len));
        ASSERT_TRUE(source.DecodePositions(e, &positions).ok());
        appended_writer.Append(node, positions);
      }
    }
    const OwnedBlockList copied(std::move(copied_writer));
    const OwnedBlockList appended(std::move(appended_writer));
    EXPECT_EQ(copied.has_bitset_blocks(),
              BlockPostingList::DenseBlocksEnabledByDefault() && stride < 4)
        << stride;
    EXPECT_EQ(copied.data(), appended.data()) << stride;
    EXPECT_EQ(copied.num_entries(), appended.num_entries());
    EXPECT_EQ(copied.total_positions(), appended.total_positions());
    ASSERT_EQ(copied.num_blocks(), appended.num_blocks());
    for (size_t b = 0; b < copied.num_blocks(); ++b) {
      EXPECT_EQ(copied.skip(b).max_node, appended.skip(b).max_node);
      EXPECT_EQ(copied.skip(b).max_tf, appended.skip(b).max_tf);
      EXPECT_EQ(copied.skip(b).encoding, appended.skip(b).encoding);
    }
  }
}

TEST(BlockPostingListTest, ListObjectStaysSmall) {
  // An index holds one BlockPostingList per token and per pair key
  // (hundreds of thousands on a large index); 8 more bytes each is
  // measurable resident memory.
  EXPECT_LE(sizeof(BlockPostingList), 80u);
}

TEST(PostingStoreTest, MemoryUsageCountsThePayloadBytesWritten) {
  // A store whose payload was reserved larger than it was filled holds the
  // unwritten slack as untouched pages: MemoryUsage counts the list record,
  // the skip directory and the bytes written, the same as for a store
  // sized exactly.
  const PostingList raw = MakeRawList(1000, 3, 5);
  const auto fill = [&raw](PostingStore* store) {
    BlockListWriter writer;
    for (size_t i = 0; i < raw.num_entries(); ++i) {
      writer.Append(raw.entry(i).node, raw.positions(raw.entry(i)));
    }
    store->Add(std::move(writer));
    store->Seal();
  };
  PostingStore exact, reserved;
  fill(&exact);
  reserved.Reserve(1, 0, size_t{4} << 20);
  fill(&reserved);
  const BlockPostingList& list = reserved.list(0);
  EXPECT_EQ(reserved.MemoryUsage(),
            sizeof(BlockPostingList) +
                list.num_blocks() * sizeof(BlockPostingList::SkipEntry) +
                list.data().size());
  EXPECT_EQ(reserved.MemoryUsage(), exact.MemoryUsage());
  EXPECT_LT(reserved.MemoryUsage(), size_t{1} << 20);
}

TEST(BlockListCursorTest, SequentialScanMatchesRawCursor) {
  PostingList raw = MakeRawList(500, 4, 3);
  OwnedBlockList block = FromPostingList(raw, 64);
  ListCursor rc(&raw);
  BlockListCursor bc(&block);
  while (true) {
    const NodeId a = rc.NextEntry();
    const NodeId b = bc.NextEntry();
    ASSERT_EQ(a, b);
    if (a == kInvalidNode) break;
    auto pa = rc.GetPositions();
    auto pb = bc.GetPositions();
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(bc.pos_count(), pb.size());
    for (size_t j = 0; j < pa.size(); ++j) EXPECT_EQ(pa[j], pb[j]);
  }
  EXPECT_TRUE(bc.exhausted());
}

TEST(BlockListCursorTest, SeekToFirstNode) {
  PostingList raw = MakeRawList(300, 2, 1);  // nodes 1, 3, ..., 599
  OwnedBlockList block = FromPostingList(raw, 50);
  BlockListCursor cursor(&block);
  EXPECT_EQ(cursor.SeekEntry(0), 1u);
  EXPECT_EQ(cursor.current_node(), 1u);
}

TEST(BlockListCursorTest, SeekToLastNode) {
  PostingList raw = MakeRawList(300, 2, 1);
  OwnedBlockList block = FromPostingList(raw, 50);
  BlockListCursor cursor(&block);
  EXPECT_EQ(cursor.SeekEntry(599), 599u);
  EXPECT_EQ(cursor.NextEntry(), kInvalidNode);
}

TEST(BlockListCursorTest, SeekToAbsentNodeLandsOnSuccessor) {
  PostingList raw = MakeRawList(300, 2, 1);  // odd nodes only
  OwnedBlockList block = FromPostingList(raw, 50);
  BlockListCursor cursor(&block);
  EXPECT_EQ(cursor.SeekEntry(100), 101u);  // 100 absent -> first node >= 100
}

TEST(BlockListCursorTest, SeekPastEndExhausts) {
  PostingList raw = MakeRawList(300, 2, 1);
  OwnedBlockList block = FromPostingList(raw, 50);
  BlockListCursor cursor(&block);
  EXPECT_EQ(cursor.SeekEntry(600), kInvalidNode);
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.SeekEntry(1), kInvalidNode);  // stays exhausted
}

TEST(BlockListCursorTest, BackwardSeekIsRejected) {
  PostingList raw = MakeRawList(300, 2, 1);
  OwnedBlockList block = FromPostingList(raw, 50);
  BlockListCursor cursor(&block);
  ASSERT_EQ(cursor.SeekEntry(401), 401u);
  EXPECT_EQ(cursor.SeekEntry(7), 401u);  // backward: cursor does not move
  EXPECT_EQ(cursor.current_node(), 401u);
}

TEST(BlockListCursorTest, EmptyAndNullListsExhaustImmediately) {
  BlockPostingList empty;
  BlockListCursor c1(&empty);
  EXPECT_EQ(c1.SeekEntry(0), kInvalidNode);
  EXPECT_TRUE(c1.exhausted());
  BlockListCursor c2(nullptr);
  EXPECT_EQ(c2.SeekEntry(5), kInvalidNode);
  BlockListCursor c3(nullptr);
  EXPECT_EQ(c3.NextEntry(), kInvalidNode);
}

TEST(BlockListCursorTest, SeekWithinCurrentBlockAdvances) {
  PostingList raw = MakeRawList(100, 2, 1);  // one block of 128 capacity
  OwnedBlockList block = FromPostingList(raw, 128);
  ASSERT_EQ(block.num_blocks(), 1u);
  EvalCounters counters;
  BlockListCursor cursor(&block, &counters);
  ASSERT_EQ(cursor.NextEntry(), 1u);
  EXPECT_EQ(cursor.SeekEntry(51), 51u);
  EXPECT_EQ(cursor.SeekEntry(52), 53u);
  EXPECT_EQ(counters.blocks_decoded, 1u);  // never re-decoded
}

TEST(BlockListCursorTest, SeekDecodesSubLinearEntryCount) {
  // 10k entries in 79 blocks of 128: one cold seek must decode exactly one
  // block (plus O(log blocks) skip probes), not the whole list.
  PostingList raw = MakeRawList(10000, 3, 2);
  OwnedBlockList block = FromPostingList(raw, 128);
  EvalCounters counters;
  BlockListCursor cursor(&block, &counters);
  const NodeId target = raw.entry(7000).node;
  EXPECT_EQ(cursor.SeekEntry(target), target);
  EXPECT_EQ(counters.blocks_decoded, 1u);
  EXPECT_EQ(counters.entries_decoded, 128u);
  EXPECT_LE(counters.skip_checks, 8u);  // ~log2(79)
  EXPECT_LT(counters.entries_decoded, block.num_entries() / 10);
}

TEST(BlockListCursorTest, InterleavedSeekAndNextMatchRawReference) {
  PostingList raw = MakeRawList(2000, 3, 2);
  OwnedBlockList block = FromPostingList(raw, 128);
  Rng rng(99);
  ListCursor rc(&raw);
  BlockListCursor bc(&block);
  for (int step = 0; step < 500; ++step) {
    if (rng.Bernoulli(0.5)) {
      ASSERT_EQ(rc.NextEntry(), bc.NextEntry());
    } else {
      const NodeId target = rng.Uniform(7000);
      ASSERT_EQ(rc.SeekEntry(target), bc.SeekEntry(target)) << "target " << target;
    }
    if (rc.exhausted()) break;
    ASSERT_EQ(rc.GetPositions().size(), bc.GetPositions().size());
  }
}

TEST(BlockListCursorTest, WorksOnIndexBuiltLists) {
  CorpusGenOptions opts;
  opts.num_nodes = 400;
  opts.vocabulary = 500;
  opts.num_topic_tokens = 2;
  Corpus corpus = GenerateCorpus(opts);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  const BlockPostingList* block = index.block_list_for_text(TopicToken(0));
  const PostingList* raw = oracle.list(index.LookupToken(TopicToken(0)));
  ASSERT_NE(block, nullptr);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(block->num_entries(), raw->num_entries());
  ExpectListsEqual(*raw, Materialize(*block));
  EXPECT_EQ(index.block_any_list().num_entries(), oracle.any_list.num_entries());
}

TEST(BlockPostingListTest, CompressedFootprintIsSmallerThanRawStructs) {
  CorpusGenOptions opts;
  opts.num_nodes = 2000;
  opts.num_topic_tokens = 2;
  opts.topic_occurrences = 6;
  InvertedIndex index = IndexBuilder::Build(GenerateCorpus(opts));
  const BlockPostingList* block = index.block_list_for_text(TopicToken(0));
  ASSERT_NE(block, nullptr);
  const size_t raw_bytes = block->num_entries() * sizeof(PostingEntry) +
                           block->total_positions() * sizeof(PositionInfo);
  // The acceptance bar for the block layout: at least 2x smaller than the
  // raw in-memory representation it replaces on disk.
  EXPECT_LE(block->byte_size() * 2, raw_bytes)
      << "block=" << block->byte_size() << " raw=" << raw_bytes;
}

// ---------------------------------------------------------------------------
// DecodedBlockCache: shared bulk-decoded blocks across cursors.
// ---------------------------------------------------------------------------

TEST(DecodedBlockCacheTest, SecondScanHitsEveryBlock) {
  PostingList raw = MakeRawList(1000, 3, 2);
  OwnedBlockList block = FromPostingList(raw, 128);
  DecodedBlockCache cache;
  EvalCounters counters;
  for (int scan = 0; scan < 2; ++scan) {
    BlockListCursor cursor(&block, &counters, &cache);
    size_t n = 0;
    while (cursor.NextEntry() != kInvalidNode) ++n;
    EXPECT_EQ(n, raw.num_entries());
  }
  EXPECT_EQ(counters.cache_misses, block.num_blocks());
  EXPECT_EQ(counters.cache_hits, block.num_blocks());
  // Only the misses decoded anything.
  EXPECT_EQ(counters.blocks_decoded, block.num_blocks());
  EXPECT_EQ(counters.blocks_bulk_decoded, block.num_blocks());
  EXPECT_EQ(counters.entries_decoded, raw.num_entries());
}

TEST(DecodedBlockCacheTest, CachedScanStreamsIdenticalToUncached) {
  PostingList raw = MakeRawList(700, 2, 3);
  OwnedBlockList block = FromPostingList(raw, 64);
  DecodedBlockCache cache;  // holds the whole list: the cached path is live
  for (int scan = 0; scan < 2; ++scan) {
    BlockListCursor cached(&block, nullptr, &cache);
    BlockListCursor plain(&block);
    while (true) {
      const NodeId expected = plain.NextEntry();
      ASSERT_EQ(cached.NextEntry(), expected);
      if (expected == kInvalidNode) break;
      auto pa = plain.GetPositions();
      auto pb = cached.GetPositions();
      ASSERT_EQ(std::vector<PositionInfo>(pa.begin(), pa.end()),
                std::vector<PositionInfo>(pb.begin(), pb.end()));
    }
  }
}

TEST(DecodedBlockCacheTest, EvictedBlockStaysValidForItsCursor) {
  // Two single-block lists sharing a capacity-1 cache: cursor A parks
  // inside list one's cached block, cursor B's scan of list two evicts it.
  // A's decoded view must survive eviction (shared_ptr keepalive).
  PostingList raw1 = MakeRawList(100, 2, 1);
  PostingList raw2 = MakeRawList(100, 3, 1);
  OwnedBlockList block1 = FromPostingList(raw1, 128);
  OwnedBlockList block2 = FromPostingList(raw2, 128);
  ASSERT_EQ(block1.num_blocks(), 1u);
  DecodedBlockCache cache(/*capacity=*/1);
  EvalCounters counters;
  BlockListCursor a(&block1, &counters, &cache);
  ASSERT_NE(a.NextEntry(), kInvalidNode);
  const NodeId first = a.current_node();
  BlockListCursor b(&block2, &counters, &cache);
  while (b.NextEntry() != kInvalidNode) {
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(counters.cache_misses, 2u);  // block1's block was evicted by block2's
  EXPECT_EQ(a.current_node(), first);
  size_t remaining = 1;
  while (a.NextEntry() != kInvalidNode) ++remaining;
  EXPECT_EQ(remaining, raw1.num_entries());
}

TEST(DecodedBlockCacheTest, ListsLongerThanCapacityBypassTheCache) {
  // A sequential pass over a list with more blocks than the cache holds
  // would evict every block before its re-read; cursors must skip the
  // cache (no misses, no insertions) and decode into their own arena.
  PostingList raw = MakeRawList(1000, 2, 1);
  OwnedBlockList block = FromPostingList(raw, 128);
  ASSERT_GT(block.num_blocks(), 4u);
  DecodedBlockCache cache(/*capacity=*/4);
  EvalCounters counters;
  for (int scan = 0; scan < 2; ++scan) {
    BlockListCursor cursor(&block, &counters, &cache);
    size_t n = 0;
    while (cursor.NextEntry() != kInvalidNode) ++n;
    EXPECT_EQ(n, raw.num_entries());
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 0u);
  EXPECT_EQ(counters.blocks_decoded, 2 * block.num_blocks());
}

TEST(DecodedBlockCacheTest, AttachRequiresRepeatsAndAFittingWorkingSet) {
  CorpusGenOptions opts;
  opts.num_nodes = 300;
  opts.num_topic_tokens = 2;
  opts.topic_occurrences = 2;
  InvertedIndex index = IndexBuilder::Build(GenerateCorpus(opts));
  const std::string t0 = TopicToken(0);
  const std::string t1 = TopicToken(1);
  const DecodedBlockCache cache;
  // Distinct tokens: no possible hit, never attach.
  EXPECT_FALSE(cache.PaysFor(index, {.tokens = {t0, t1}}));
  // Repeated token with the default capacity: attach.
  EXPECT_TRUE(cache.PaysFor(index, {.tokens = {t0, t0}}));
  // Repeated ANY scans count as a repeated list too.
  EXPECT_TRUE(cache.PaysFor(index, {.tokens = {}, .any_scans = 2}));
  // A rerun pass rereads every list: attach when they fit.
  EXPECT_TRUE(cache.PaysFor(index, {.tokens = {t0, t1}, .rerun = true}));
  // Repeated token whose working set exceeds a one-block cache: the LRU
  // would thrash on every rescan, so the decision is to stay uncached.
  const DecodedBlockCache tiny(/*capacity=*/1);
  EXPECT_FALSE(tiny.PaysFor(index, {.tokens = {t0, t1, t0}}));
  // With an L2 behind it the L1 always attaches.
  SharedBlockCache l2;
  const DecodedBlockCache fronted(DecodedBlockCache::kDefaultCapacity, &l2);
  EXPECT_TRUE(fronted.PaysFor(index, {.tokens = {t0}}));
}

TEST(DecodedBlockCacheTest, SeekingThroughCacheMatchesDirectSeeks) {
  PostingList raw = MakeRawList(900, 5, 1);
  OwnedBlockList block = FromPostingList(raw, 128);
  DecodedBlockCache cache;
  EvalCounters counters;
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    BlockListCursor cached(&block, &counters, &cache);
    BlockListCursor plain(&block);
    NodeId target = 0;
    while (true) {
      target += 1 + rng.Uniform(400);
      const NodeId expected = plain.SeekEntry(target);
      ASSERT_EQ(cached.SeekEntry(target), expected);
      if (expected == kInvalidNode) break;
    }
  }
  EXPECT_GT(counters.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// First-touch validation (the lazy mmap-load contract): lists assembled
// from borrowed bytes with per-block checksums verify each block's
// checksum, entry structure and position framing on its first decode (the
// eager load and the merger reach the same decode), memoize success, and report
// corruption through cursor status() instead of crashing or asserting.
// ---------------------------------------------------------------------------

struct LazyListParts {
  std::string payload;
  std::vector<BlockPostingList::SkipEntry> skips;
  std::vector<uint32_t> checksums;
  size_t num_entries = 0;
  size_t total_positions = 0;
  uint32_t block_size = 0;
};

/// `raw`'s blocks, with the checksums a writer of the file would record.
LazyListParts LazyPartsOf(const PostingList& raw, uint32_t block_size) {
  const OwnedBlockList built = FromPostingList(raw, block_size);
  LazyListParts parts;
  parts.payload = std::string(built.data());
  parts.skips.assign(built.skips().begin(), built.skips().end());
  parts.num_entries = built.num_entries();
  parts.total_positions = built.total_positions();
  parts.block_size = built.block_size();
  for (size_t b = 0; b < built.num_blocks(); ++b) {
    const size_t begin = built.skip(b).byte_offset;
    const size_t end = b + 1 < built.num_blocks() ? built.skip(b + 1).byte_offset
                                                  : parts.payload.size();
    parts.checksums.push_back(
        Crc32c(std::string_view(parts.payload).substr(begin, end - begin)));
  }
  return parts;
}

/// Stride 3 (the default) packs full blocks as bitsets; stride 8 keeps
/// them varint.
LazyListParts MakeLazyParts(uint32_t entries, uint32_t block_size,
                            uint32_t stride = 3) {
  return LazyPartsOf(MakeRawList(entries, stride, 4), block_size);
}

/// A checked list over a copy of `parts.payload`, as a loader adopts one.
OwnedBlockList AssembleLazy(const LazyListParts& parts) {
  PostingStore store;
  store.AddChecked(parts.block_size, parts.num_entries, parts.total_positions,
                   parts.skips, parts.checksums, 0, parts.payload.size());
  store.Seal(IndexSource::FromString(parts.payload));
  return OwnedBlockList(std::move(store));
}

TEST(FirstTouchValidationTest, CleanLazyListStreamsIdenticalToBuilt) {
  const PostingList raw = MakeRawList(500, 3, 4);
  const LazyListParts parts = MakeLazyParts(500, 128);
  const OwnedBlockList lazy = AssembleLazy(parts);
  ASSERT_EQ(lazy.num_blocks(), 4u);
  for (size_t b = 0; b < lazy.num_blocks(); ++b) {
    EXPECT_FALSE(lazy.BlockVerified(b)) << b;  // untouched so far
  }
  EvalCounters counters;
  BlockListCursor cursor(&lazy, &counters);
  ListCursor reference(&raw);
  while (true) {
    const NodeId expected = reference.NextEntry();
    ASSERT_EQ(cursor.NextEntry(), expected);
    if (expected == kInvalidNode) break;
    ASSERT_EQ(cursor.GetPositions().size(), reference.GetPositions().size());
  }
  EXPECT_TRUE(cursor.status().ok());
  EXPECT_EQ(counters.first_touch_validations, lazy.num_blocks());
  for (size_t b = 0; b < lazy.num_blocks(); ++b) {
    EXPECT_TRUE(lazy.BlockVerified(b)) << b;  // memoized
  }
  // A second scan re-decodes but never re-validates.
  EvalCounters again;
  BlockListCursor second(&lazy, &again);
  while (second.NextEntry() != kInvalidNode) {
  }
  EXPECT_EQ(again.first_touch_validations, 0u);
  EXPECT_EQ(again.blocks_decoded, lazy.num_blocks());
}

TEST(FirstTouchValidationTest, PayloadFlipSurfacesCorruptionAtFirstDecode) {
  // Flip one byte in the third block's payload: blocks 0-1 stream fine,
  // the damaged block fails its first-touch checksum, the cursor fails
  // closed (exhausts) and carries Corruption in status().
  LazyListParts parts = MakeLazyParts(500, 128);
  const size_t victim_begin = parts.skips[2].byte_offset;
  parts.payload[victim_begin + 1] =
      static_cast<char>(parts.payload[victim_begin + 1] ^ 0x10);
  const OwnedBlockList lazy = AssembleLazy(parts);
  BlockListCursor cursor(&lazy);
  size_t streamed = 0;
  while (cursor.NextEntry() != kInvalidNode) ++streamed;
  EXPECT_EQ(streamed, 256u);  // the two intact blocks
  EXPECT_TRUE(cursor.exhausted());
  ASSERT_FALSE(cursor.status().ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCorruption);
  EXPECT_NE(cursor.status().message().find("checksum mismatch at first touch"),
            std::string::npos)
      << cursor.status().ToString();
  EXPECT_FALSE(lazy.BlockVerified(2));  // failure is never memoized as success
}

TEST(FirstTouchValidationTest, SeekIntoDamagedBlockFailsClosed) {
  LazyListParts parts = MakeLazyParts(500, 128);
  const size_t victim_begin = parts.skips[3].byte_offset;
  parts.payload[victim_begin] = static_cast<char>(parts.payload[victim_begin] ^ 0x01);
  const OwnedBlockList lazy = AssembleLazy(parts);
  BlockListCursor cursor(&lazy);
  // Seeking straight into the damaged landing block must not fabricate a
  // node: the cursor exhausts with Corruption without touching blocks 0-2.
  EXPECT_EQ(cursor.SeekEntry(parts.skips[3].max_node), kInvalidNode);
  EXPECT_EQ(cursor.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(lazy.BlockVerified(0));  // untouched blocks stay unvalidated
}

TEST(FirstTouchValidationTest, CachedDecodeReportsCorruptionOnce) {
  // The DecodedBlockCache path must propagate first-touch failures exactly
  // like direct decodes.
  LazyListParts parts = MakeLazyParts(300, 128);
  parts.payload[parts.skips[1].byte_offset] ^= 0x40;
  const OwnedBlockList lazy = AssembleLazy(parts);
  DecodedBlockCache cache;
  EvalCounters counters;
  BlockListCursor cursor(&lazy, &counters, &cache);
  while (cursor.NextEntry() != kInvalidNode) {
  }
  EXPECT_EQ(cursor.status().code(), StatusCode::kCorruption);
  Status direct;
  EXPECT_EQ(cache.GetOrDecode(lazy, 1, &counters, &direct), nullptr);
  EXPECT_EQ(direct.code(), StatusCode::kCorruption);
}

TEST(FirstTouchValidationTest, CrossBlockMonotonicityCheckedLazily) {
  // Rewrite block 1's first (absolute) node id to collide with block 0's
  // range and reseal block 1's checksum: the checksum passes, and the
  // structural cross-block check must reject at first decode of block 1.
  LazyListParts parts = MakeLazyParts(300, 128);
  // MakeRawList uses stride 3 from node 1, so block-local deltas after the
  // first entry are all 3 (one byte); block 1 opens with an absolute node
  // id varint. Replacing its first byte with 0x01 (node 1 <= block 0 max)
  // keeps the byte length valid only if the original first byte was also
  // one varint byte; node 385 needs two bytes, so patch both: 0x01 then a
  // pad... simpler: damage via a zero node delta inside the block, which
  // the in-block monotonicity check rejects. Assemble with a corrected
  // checksum so only structure can reject.
  const size_t victim = parts.skips[1].byte_offset;
  // First entry of block 1: absolute node id (2-byte varint for node 385).
  parts.payload[victim] = 0x01;      // 1-byte varint: node 1
  parts.payload[victim + 1] = 0x00;  // becomes the pos_count varint (0)
  const size_t end = parts.skips.size() > 2 ? parts.skips[2].byte_offset
                                            : parts.payload.size();
  parts.checksums[1] =
      Crc32c(std::string_view(parts.payload).substr(victim, end - victim));
  const OwnedBlockList lazy = AssembleLazy(parts);
  std::vector<BlockPostingList::EntryRef> entries;
  const Status s = lazy.DecodeBlockEntries(1, &entries);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

/// Damages only one entry's position framing in block 1 — a continuation
/// bit on the entry's last position byte, so its last varint runs into
/// whatever follows — and reseals the block checksum. The entry headers
/// still decode, so only first touch's framing walk can object; it must,
/// before the block is memoized as verified.
void ExpectFramingDamageRejectedAtFirstTouch(uint32_t stride, uint8_t encoding) {
  LazyListParts parts = MakeLazyParts(300, 128, stride);
  ASSERT_EQ(parts.skips.size(), 3u);
  ASSERT_EQ(parts.skips[1].encoding, encoding);
  std::vector<BlockPostingList::EntryRef> entries;
  ASSERT_TRUE(AssembleLazy(parts).DecodeBlockEntries(1, &entries).ok());
  const BlockPostingList::EntryRef victim = entries[5];
  char& last = parts.payload[victim.pos_byte_begin + victim.pos_byte_len - 1];
  ASSERT_EQ(last & 0x80, 0);
  last = static_cast<char>(last | 0x80);
  const size_t begin = parts.skips[1].byte_offset;
  const size_t end = parts.skips[2].byte_offset;
  parts.checksums[1] =
      Crc32c(std::string_view(parts.payload).substr(begin, end - begin));
  const OwnedBlockList lazy = AssembleLazy(parts);
  const Status s = lazy.DecodeBlockEntries(1, &entries);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_FALSE(lazy.BlockVerified(1));
  // Its neighbours are intact and verify.
  EXPECT_TRUE(lazy.DecodeBlockEntries(0, &entries).ok());
  EXPECT_TRUE(lazy.BlockVerified(0));
}

TEST(FirstTouchValidationTest, PositionFramingCheckedInVarintBlocks) {
  ExpectFramingDamageRejectedAtFirstTouch(8, BlockPostingList::kEncodingVarint);
}

TEST(FirstTouchValidationTest, PositionFramingCheckedInBitsetBlocks) {
  ExpectFramingDamageRejectedAtFirstTouch(3, BlockPostingList::kEncodingBitset);
}

TEST(FirstTouchValidationTest, FiveBytePositionVarintsVerify) {
  // Offsets from 2^28 up encode as 5-byte varints, which the framing walk
  // checks byte by byte: a valid one verifies, and one whose fifth byte
  // carries bits past 32 (a resealed edit) is rejected at first touch.
  PostingList raw;
  for (uint32_t i = 0; i < 40; ++i) {
    raw.Append(1 + 8 * i, std::vector<PositionInfo>{{3, 0, 0}, {(1u << 31) + i, 0, 0}});
  }
  LazyListParts parts = LazyPartsOf(raw, 128);
  ASSERT_EQ(parts.skips.size(), 1u);
  std::vector<BlockPostingList::EntryRef> entries;
  ASSERT_TRUE(AssembleLazy(parts).DecodeBlockEntries(0, &entries).ok());
  ASSERT_EQ(entries.size(), 40u);
  // Entry 7's bytes: offset 3, sentence 0, paragraph 0, then the 5-byte
  // offset delta, whose fifth byte holds bits 28..31 of the value.
  const BlockPostingList::EntryRef victim = entries[7];
  ASSERT_EQ(victim.pos_byte_len, 3u + 5u + 2u);
  char& fifth = parts.payload[victim.pos_byte_begin + 3 + 4];
  ASSERT_EQ(fifth & 0xF0, 0);
  fifth = static_cast<char>(fifth | 0x10);
  parts.checksums[0] = Crc32c(parts.payload);
  const OwnedBlockList lazy = AssembleLazy(parts);
  const Status s = lazy.DecodeBlockEntries(0, &entries);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_FALSE(lazy.BlockVerified(0));
}

// ---------------------------------------------------------------------------
// Hybrid dense-bitset blocks.
// ---------------------------------------------------------------------------

TEST(DenseBlockTest, ClassificationBySpanAndSize) {
  // Consecutive ids (span == entries) classify dense; a stride of 8 blows
  // the span budget (8 * entries > kDenseSpanFactor * entries) and stays
  // varint; lists below kMinDenseEntries never flip representation.
  const OwnedBlockList dense =
      FromPostingList(MakeRawList(256, 1, 2), 128);
  EXPECT_TRUE(dense.has_bitset_blocks());
  for (size_t b = 0; b < dense.num_blocks(); ++b) {
    EXPECT_EQ(dense.skip(b).encoding, BlockPostingList::kEncodingBitset) << b;
  }
  const OwnedBlockList sparse =
      FromPostingList(MakeRawList(256, 8, 2), 128);
  EXPECT_FALSE(sparse.has_bitset_blocks());
  const OwnedBlockList tiny =
      FromPostingList(MakeRawList(8, 1, 1), 128);
  EXPECT_FALSE(tiny.has_bitset_blocks());
}

TEST(DenseBlockTest, BitsetBlocksRoundTripEntriesAndPositions) {
  const PostingList raw = MakeRawList(300, 1, 5);
  const OwnedBlockList block = FromPostingList(raw, 128);
  ASSERT_TRUE(block.has_bitset_blocks());
  ExpectListsEqual(raw, Materialize(block));
  // Streaming cursor agrees with the raw reference, positions included.
  BlockListCursor cursor(&block);
  ListCursor reference(&raw);
  while (true) {
    const NodeId expected = reference.NextEntry();
    ASSERT_EQ(cursor.NextEntry(), expected);
    if (expected == kInvalidNode) break;
    const auto got = cursor.GetPositions();
    const auto want = reference.GetPositions();
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].offset, want[j].offset);
      EXPECT_EQ(got[j].sentence, want[j].sentence);
      EXPECT_EQ(got[j].paragraph, want[j].paragraph);
    }
  }
  EXPECT_TRUE(cursor.status().ok());
}

TEST(DenseBlockTest, SeeksAcrossHybridDenseAndSparseBlocks) {
  // A list whose head blocks are dense and whose tail block is sparse:
  // seeks must land correctly on both sides of the representation switch.
  PostingList raw;
  for (uint32_t n = 1; n <= 280; ++n) {
    const PositionInfo pos{n % 50, 0, 0};
    raw.Append(n, std::span<const PositionInfo>(&pos, 1));
  }
  for (uint32_t i = 0; i < 80; ++i) {
    const PositionInfo pos{i, 0, 0};
    raw.Append(1000 + 100 * i, std::span<const PositionInfo>(&pos, 1));
  }
  const OwnedBlockList block = FromPostingList(raw, 128);
  ASSERT_TRUE(block.has_bitset_blocks());
  bool has_varint_block = false;
  for (size_t b = 0; b < block.num_blocks(); ++b) {
    has_varint_block |=
        block.skip(b).encoding == BlockPostingList::kEncodingVarint;
  }
  ASSERT_TRUE(has_varint_block);
  BlockListCursor cursor(&block);
  EXPECT_EQ(cursor.SeekEntry(150), 150u);   // inside a dense block
  EXPECT_EQ(cursor.SeekEntry(281), 1000u);  // gap: successor in sparse region
  EXPECT_EQ(cursor.SeekEntry(1050), 1100u);
  EXPECT_EQ(cursor.SeekEntry(8901), kInvalidNode);
  EXPECT_TRUE(cursor.status().ok());
}

TEST(DenseBlockTest, CurrentDenseBlockExposesTheBitsetView) {
  const OwnedBlockList dense =
      FromPostingList(MakeRawList(256, 1, 2), 128);
  BlockListCursor cursor(&dense);
  BlockListCursor::DenseBlockView view;
  EXPECT_FALSE(cursor.CurrentDenseBlock(&view));  // not started yet
  ASSERT_EQ(cursor.NextEntry(), 1u);
  ASSERT_TRUE(cursor.CurrentDenseBlock(&view));
  EXPECT_EQ(view.base, 1u);
  EXPECT_EQ(view.max_node, dense.skip(0).max_node);
  // Consecutive ids: span == 128 -> exactly two fully-set words.
  ASSERT_EQ(view.nwords, 2u);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(view.words[i], 0xFF) << i;

  const OwnedBlockList sparse =
      FromPostingList(MakeRawList(256, 8, 2), 128);
  BlockListCursor scursor(&sparse);
  ASSERT_NE(scursor.NextEntry(), kInvalidNode);
  EXPECT_FALSE(scursor.CurrentDenseBlock(&view));
}

TEST(DenseBlockTest, VarintOnlyBuildPreservesContent) {
  // Build the same list twice, the second time with bitset blocks disabled
  // (the varint-only differential axis): the content, block boundaries and
  // block maxima match; only the representation differs.
  const PostingList raw = MakeRawList(300, 1, 3);
  const OwnedBlockList dense = FromPostingList(raw, 128);
  ASSERT_TRUE(dense.has_bitset_blocks());
  const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(false);
  const OwnedBlockList varint = FromPostingList(raw, 128);
  BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
  EXPECT_FALSE(varint.has_bitset_blocks());
  ExpectListsEqual(raw, Materialize(varint));
  EXPECT_EQ(varint.num_entries(), dense.num_entries());
  EXPECT_EQ(varint.num_blocks(), dense.num_blocks());
  for (size_t b = 0; b < dense.num_blocks(); ++b) {
    EXPECT_EQ(varint.skip(b).max_node, dense.skip(b).max_node) << b;
    EXPECT_EQ(varint.skip(b).max_tf, dense.skip(b).max_tf) << b;
  }
}

TEST(DenseBlockTest, BitsetWordFlipRejectsEvenWithResealedChecksum) {
  // Flip one bitset word byte and reseal the block checksum, so only the
  // structural validation can object: a single flipped bit changes the
  // popcount away from the entry count (or clears the base/max bit), and
  // the decode must reject rather than fabricate or drop entries.
  LazyListParts parts = MakeLazyParts(300, 128);  // stride 3: dense blocks
  ASSERT_EQ(parts.skips[0].encoding, BlockPostingList::kEncodingBitset);
  // Block 0 layout: base varint (1 byte, node 1) | nwords varint (1 byte) |
  // words. Flip a bit in the middle of the first word.
  parts.payload[2 + 3] = static_cast<char>(parts.payload[2 + 3] ^ 0x08);
  const size_t end = parts.skips[1].byte_offset;
  parts.checksums[0] = Crc32c(std::string_view(parts.payload).substr(0, end));
  const OwnedBlockList lazy = AssembleLazy(parts);
  std::vector<BlockPostingList::EntryRef> entries;
  const Status s = lazy.DecodeBlockEntries(0, &entries);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(DenseBlockTest, SimdDecodeCountersChargeWhenActive) {
  // The dispatched decoder reports which arm it resolved to; when a SIMD
  // arm is active, bulk-decoding a dense list must charge
  // simd_groups_decoded (bitset count/len streams + position triples).
  const OwnedBlockList dense =
      FromPostingList(MakeRawList(256, 1, 6), 128);
  ASSERT_TRUE(dense.has_bitset_blocks());
  EvalCounters counters;
  BlockListCursor cursor(&dense, &counters);
  while (cursor.NextEntry() != kInvalidNode) {
    (void)cursor.GetPositions();
  }
  ASSERT_TRUE(cursor.status().ok());
  if (SimdDecodeActive()) {
    EXPECT_GT(counters.simd_groups_decoded, 0u);
  } else {
    EXPECT_EQ(counters.simd_groups_decoded, 0u);
  }
}

class CursorStreamDifferential : public ::testing::TestWithParam<uint64_t> {};

std::vector<PositionInfo> PositionsOf(std::span<const PositionInfo> positions) {
  return {positions.begin(), positions.end()};
}

TEST_P(CursorStreamDifferential, CursorStreamsMatchRawOracle) {
  // Below the engines: every block list replays the exact entry/position
  // stream of its raw twin under sequential iteration, streaked position
  // reads and an interleaved seek/next access pattern. The corpus gives
  // lists of several bitset blocks, so the cursor's one position arena
  // serves runs of one entry and multi-entry spans on both sides of a
  // block boundary.
  Rng rng(GetParam() * 29 + 1);
  Corpus corpus = RandomWorkloadCorpus(&rng, 600, 8);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  ASSERT_EQ(oracle.lists.size(), index.vocabulary_size());
  struct Twin {
    std::string name;
    const PostingList* raw;
    const BlockPostingList* block;
  };
  std::vector<Twin> twins;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    twins.push_back({index.token_text(t), oracle.list(t), index.block_list(t)});
  }
  twins.push_back({"IL_ANY", &oracle.any_list, &index.block_any_list()});

  // Streaks of 1, 2, 3 and 9 position reads, each followed by one or two
  // entries whose positions are never asked for. pattern[i] is the length
  // of the streak entry i belongs to, or 0 for a skipped entry; walking
  // each list at every phase of the 21-entry pattern puts each streak
  // across every block boundary at each of its offsets.
  std::vector<uint32_t> pattern;
  for (const auto& [streak, gap] : {std::pair{1u, 1u}, {2u, 2u}, {3u, 1u}, {9u, 2u}}) {
    pattern.insert(pattern.end(), streak, streak);
    pattern.insert(pattern.end(), gap, 0u);
  }
  std::map<uint32_t, size_t> streaks_across_blocks;
  size_t multi_block_bitset_lists = 0;
  for (const Twin& twin : twins) {
    SCOPED_TRACE(twin.name);
    size_t bitset_blocks = 0;
    for (const BlockPostingList::SkipEntry& s : twin.block->skips()) {
      bitset_blocks += s.encoding == BlockPostingList::kEncodingBitset;
    }
    multi_block_bitset_lists += bitset_blocks >= 2;
    // Sequential: identical node and position streams.
    {
      ListCursor rc(twin.raw);
      BlockListCursor bc(twin.block);
      while (true) {
        const NodeId expected = rc.NextEntry();
        ASSERT_EQ(bc.NextEntry(), expected);
        if (expected == kInvalidNode) break;
        ASSERT_EQ(PositionsOf(bc.GetPositions()), PositionsOf(rc.GetPositions()));
      }
      ASSERT_TRUE(bc.status().ok()) << bc.status().ToString();
    }
    // Streaked reads; every third read asks twice, so the arena serves
    // repeated reads of an entry as well as fresh ones.
    for (size_t phase = 0; phase < pattern.size(); ++phase) {
      ListCursor rc(twin.raw);
      BlockListCursor bc(twin.block);
      size_t reads = 0;
      size_t prev_block = SIZE_MAX;
      uint32_t prev_streak = 0;
      for (size_t i = phase;; ++i) {
        const NodeId expected = rc.NextEntry();
        ASSERT_EQ(bc.NextEntry(), expected);
        if (expected == kInvalidNode) break;
        const uint32_t streak = pattern[i % pattern.size()];
        if (streak != 0 && streak == prev_streak && bc.current_block() != prev_block) {
          ++streaks_across_blocks[streak];
        }
        prev_streak = streak;
        prev_block = bc.current_block();
        if (streak == 0) continue;
        const std::vector<PositionInfo> want = PositionsOf(rc.GetPositions());
        ASSERT_EQ(PositionsOf(bc.GetPositions()), want) << "entry " << i - phase;
        if (++reads % 3 == 0) {
          ASSERT_EQ(PositionsOf(bc.GetPositions()), want) << "entry " << i - phase;
        }
      }
      ASSERT_TRUE(bc.status().ok()) << bc.status().ToString();
    }
    // One read per block, at the same entry index of each: the arena
    // holds the previous block's entry, which must not serve this one.
    for (const size_t first : {size_t{0}, size_t{3}}) {
      ListCursor rc(twin.raw);
      BlockListCursor bc(twin.block);
      for (size_t i = first; i < twin.raw->num_entries();
           i += BlockPostingList::kDefaultBlockSize) {
        const NodeId target = twin.raw->entry(i).node;
        ASSERT_EQ(rc.SeekEntry(target), target);
        ASSERT_EQ(bc.SeekEntry(target), target);
        ASSERT_EQ(PositionsOf(bc.GetPositions()), PositionsOf(rc.GetPositions()))
            << "entry " << i;
      }
      ASSERT_TRUE(bc.status().ok()) << bc.status().ToString();
    }
    // Interleaved seek/next: identical landing nodes and positions.
    {
      ListCursor rs(twin.raw);
      BlockListCursor bs(twin.block);
      while (!rs.exhausted()) {
        if (rng.Bernoulli(0.5)) {
          const NodeId target = static_cast<NodeId>(rng.Uniform(
              static_cast<uint32_t>(corpus.num_nodes()) + 2));
          ASSERT_EQ(rs.SeekEntry(target), bs.SeekEntry(target));
        } else {
          ASSERT_EQ(rs.NextEntry(), bs.NextEntry());
        }
        if (!rs.exhausted() && rng.Bernoulli(0.7)) {
          ASSERT_EQ(PositionsOf(bs.GetPositions()), PositionsOf(rs.GetPositions()));
        }
      }
      ASSERT_TRUE(bs.status().ok()) << bs.status().ToString();
    }
  }
  // The corpus must keep exercising what the test is for.
  EXPECT_GE(multi_block_bitset_lists, 3u);
  for (const uint32_t streak : {2u, 3u, 9u}) {
    EXPECT_GT(streaks_across_blocks[streak], 0u) << "streak " << streak;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorStreamDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace fts

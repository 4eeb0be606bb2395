#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "text/corpus.h"

#include "raw_postings.h"

namespace fts {
namespace {

Corpus SmallCorpus() {
  Corpus corpus;
  corpus.AddDocument("usability of a software usability");   // node 0
  corpus.AddDocument("software measures completion");        // node 1
  corpus.AddDocument("unrelated words here");                // node 2
  return corpus;
}

TEST(InvertedIndexTest, ListsContainPerNodeEntries) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  const BlockPostingList* block = index.block_list_for_text("usability");
  ASSERT_NE(block, nullptr);
  const PostingList list = Materialize(*block);
  ASSERT_EQ(list.num_entries(), 1u);
  EXPECT_EQ(list.entry(0).node, 0u);
  EXPECT_EQ(list.entry(0).pos_count, 2u);
  auto positions = list.positions(list.entry(0));
  EXPECT_EQ(positions[0].offset, 0u);
  EXPECT_EQ(positions[1].offset, 4u);
}

TEST(InvertedIndexTest, EntriesSortedByNode) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  const BlockPostingList* block = index.block_list_for_text("software");
  ASSERT_NE(block, nullptr);
  const PostingList list = Materialize(*block);
  ASSERT_EQ(list.num_entries(), 2u);
  EXPECT_LT(list.entry(0).node, list.entry(1).node);
}

TEST(InvertedIndexTest, AnyListCoversAllPositions) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  EXPECT_EQ(index.block_any_list().num_entries(), 3u);
  EXPECT_EQ(index.block_any_list().total_positions(), 5u + 3u + 3u);
}

TEST(InvertedIndexTest, EmptyDocumentsAbsentFromAnyList) {
  Corpus corpus;
  corpus.AddDocument("alpha");
  corpus.AddDocument("");
  InvertedIndex index = IndexBuilder::Build(corpus);
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_EQ(index.block_any_list().num_entries(), 1u);
}

TEST(InvertedIndexTest, StatsMatchCorpusShape) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  const IndexStats& s = index.stats();
  EXPECT_EQ(s.cnodes, 3u);
  EXPECT_EQ(s.total_positions, 11u);
  EXPECT_EQ(s.pos_per_cnode, 5u);
  EXPECT_EQ(s.entries_per_token, 2u);  // "software"
  EXPECT_EQ(s.pos_per_entry, 2u);      // "usability" in node 0
}

TEST(InvertedIndexTest, DfAndUniqueTokens) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  EXPECT_EQ(index.df(index.LookupToken("software")), 2u);
  EXPECT_EQ(index.df(index.LookupToken("usability")), 1u);
  EXPECT_EQ(index.unique_tokens(0), 4u);  // usability, of, a, software
}

TEST(InvertedIndexTest, NodeNormsArePositive) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  for (NodeId n = 0; n < 3; ++n) EXPECT_GT(index.node_norm(n), 0.0);
}

TEST(BlockListCursorTest, SequentialScanVisitsEveryEntryOnce) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  EvalCounters counters;
  BlockListCursor cursor(index.block_list_for_text("software"), &counters);
  EXPECT_EQ(cursor.current_node(), kInvalidNode);
  EXPECT_EQ(cursor.NextEntry(), 0u);
  EXPECT_EQ(cursor.GetPositions().size(), 1u);
  EXPECT_EQ(cursor.NextEntry(), 1u);
  EXPECT_EQ(cursor.NextEntry(), kInvalidNode);
  EXPECT_TRUE(cursor.exhausted());
  // Further calls stay exhausted.
  EXPECT_EQ(cursor.NextEntry(), kInvalidNode);
  EXPECT_EQ(counters.entries_scanned, 2u);
}

TEST(BlockListCursorTest, NullListIsImmediatelyExhausted) {
  BlockListCursor cursor(nullptr);
  EXPECT_EQ(cursor.NextEntry(), kInvalidNode);
  EXPECT_TRUE(cursor.exhausted());
}

TEST(BlockListCursorTest, SeekEntryLandsOnFirstNodeAtOrAfterTarget) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  EvalCounters counters;
  // "software" is in nodes 0 and 1.
  BlockListCursor cursor(index.block_list_for_text("software"), &counters);
  EXPECT_EQ(cursor.SeekEntry(0), 0u);   // seek starts the cursor
  EXPECT_EQ(cursor.SeekEntry(1), 1u);   // forward to the last entry
  EXPECT_EQ(cursor.GetPositions().size(), 1u);
  EXPECT_EQ(cursor.SeekEntry(0), 1u);   // backward seek: no movement
  EXPECT_EQ(cursor.SeekEntry(2), kInvalidNode);  // past the end
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.SeekEntry(0), kInvalidNode);  // stays exhausted
  EXPECT_GT(counters.skip_checks, 0u);
}

TEST(BlockListCursorTest, SeekEntryOnAbsentNodeSkipsToSuccessor) {
  Corpus corpus;
  corpus.AddDocument("alpha");      // node 0
  corpus.AddDocument("beta");       // node 1
  corpus.AddDocument("alpha too");  // node 2
  InvertedIndex index = IndexBuilder::Build(corpus);
  BlockListCursor cursor(index.block_list_for_text("alpha"));
  EXPECT_EQ(cursor.SeekEntry(1), 2u);  // node 1 lacks "alpha"
}

TEST(BlockListCursorTest, SeekEntryOnNullAndEmptyLists) {
  BlockListCursor null_cursor(nullptr);
  EXPECT_EQ(null_cursor.SeekEntry(0), kInvalidNode);
  EXPECT_TRUE(null_cursor.exhausted());
  BlockPostingList empty;
  BlockListCursor empty_cursor(&empty);
  EXPECT_EQ(empty_cursor.SeekEntry(0), kInvalidNode);
  EXPECT_TRUE(empty_cursor.exhausted());
}

TEST(InvertedIndexTest, BlockListsMatchRawOracle) {
  // The resident block lists carry exactly the logical content of the raw
  // oracle representation built from the same corpus.
  Corpus corpus = SmallCorpus();
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  ASSERT_EQ(oracle.lists.size(), index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    ASSERT_NE(index.block_list(t), nullptr);
    EXPECT_EQ(index.block_list(t)->num_entries(), oracle.lists[t].num_entries());
    EXPECT_EQ(index.block_list(t)->total_positions(),
              oracle.lists[t].total_positions());
    EXPECT_EQ(index.df(t), static_cast<uint32_t>(oracle.lists[t].num_entries()));
  }
  EXPECT_EQ(index.block_any_list().num_entries(), oracle.any_list.num_entries());
  EXPECT_EQ(index.block_list_for_text("zzz"), nullptr);
}

TEST(InvertedIndexTest, OovTokenHasNoList) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  EXPECT_EQ(index.block_list_for_text("zzz"), nullptr);
  EXPECT_EQ(index.df(kInvalidToken - 1), 0u);
}

TEST(InvertedIndexTest, MemoryUsageCountsResidentBytes) {
  Corpus corpus = SmallCorpus();
  InvertedIndex index = IndexBuilder::Build(corpus);
  size_t block_bytes = 0;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    block_bytes += sizeof(BlockPostingList) + index.block_list(t)->data().size();
  }
  block_bytes +=
      sizeof(BlockPostingList) + index.block_any_list().data().size();
  // The resident footprint covers at least every list record and
  // compressed payload byte.
  EXPECT_GE(index.MemoryUsage(), block_bytes);
  EXPECT_GT(block_bytes, 0u);
}

}  // namespace
}  // namespace fts

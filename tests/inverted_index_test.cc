#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

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

/// Expects `got` to hold exactly `want`'s entries and positions.
void ExpectSameList(const BlockPostingList& got, const PostingList& want,
                    const std::string& what) {
  EXPECT_EQ(got.num_entries(), want.num_entries()) << what;
  EXPECT_EQ(got.total_positions(), want.total_positions()) << what;
  const PostingList decoded = Materialize(got);
  ASSERT_EQ(decoded.num_entries(), want.num_entries()) << what;
  for (size_t i = 0; i < want.num_entries(); ++i) {
    ASSERT_EQ(decoded.entry(i).node, want.entry(i).node) << what << " entry " << i;
    const auto g = decoded.positions(decoded.entry(i));
    const auto w = want.positions(want.entry(i));
    ASSERT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()))
        << what << " entry " << i;
  }
}

/// Expects every token list, IL_ANY and every node's unique-token count of
/// `index`, built from `corpus`, to equal the raw oracle's.
void ExpectIndexMatchesOracle(const Corpus& corpus, const InvertedIndex& index) {
  const RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  ASSERT_EQ(oracle.lists.size(), index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    ASSERT_NE(index.block_list(t), nullptr);
    ExpectSameList(*index.block_list(t), oracle.lists[t], corpus.token_text(t));
    EXPECT_EQ(index.df(t), static_cast<uint32_t>(oracle.lists[t].num_entries()));
  }
  ExpectSameList(index.block_any_list(), oracle.any_list, "IL_ANY");
  ASSERT_EQ(index.num_nodes(), corpus.num_nodes());
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    const std::vector<TokenId>& tokens = corpus.doc(n).tokens;
    EXPECT_EQ(index.unique_tokens(n),
              std::set<TokenId>(tokens.begin(), tokens.end()).size())
        << "node " << n;
  }
}

TEST(InvertedIndexTest, BlockListsMatchRawOracle) {
  // The resident block lists carry exactly the logical content of the raw
  // oracle representation built from the same corpus.
  const Corpus small = SmallCorpus();
  const InvertedIndex small_index = IndexBuilder::Build(small);
  ExpectIndexMatchesOracle(small, small_index);
  EXPECT_EQ(small_index.block_list_for_text("zzz"), nullptr);

  // Multi-block lists (dense topic tokens and Zipf-sparse ones), plus the
  // edge cases a builder can trip on: a dictionary token that never
  // occurs (an empty list, df 0), empty documents and offset gaps.
  Corpus corpus = GenerateCorpus({.num_nodes = 1500});
  corpus.AddTokens({});
  const TokenId ghost = corpus.InternToken("never-occurs");
  ASSERT_TRUE(corpus
                  .AddTokensWithPositions({"gap", TopicToken(0), "gap"},
                                          {{0, 0, 0}, {9, 1, 0}, {40, 3, 1}})
                  .ok());
  corpus.AddTokens({});
  size_t multi_block = 0;
  for (const bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "dense blocks on" : "dense blocks off");
    const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(dense);
    const InvertedIndex index = IndexBuilder::Build(corpus);
    BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
    ExpectIndexMatchesOracle(corpus, index);
    EXPECT_EQ(index.df(ghost), 0u);
    EXPECT_TRUE(index.block_list(ghost)->empty());
    size_t bitset_blocks = 0;
    for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
      const BlockPostingList& list = *index.block_list(t);
      multi_block += list.num_blocks() > 1;
      for (const auto& skip : list.skips()) {
        bitset_blocks += skip.encoding == BlockPostingList::kEncodingBitset;
      }
    }
    EXPECT_EQ(bitset_blocks > 0, dense);
  }
  EXPECT_GT(multi_block, 0u);

  // ~1.05M occurrences, past the builder's two-worker threshold: on a host
  // with two or more cores the count, scatter and write passes split
  // across workers (node ranges, then token ranges), and every list, IL_ANY
  // and every unique-token count must still be the oracle's.
  const Corpus large = GenerateCorpus({.num_nodes = 6000});
  ExpectIndexMatchesOracle(large, IndexBuilder::Build(large));
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

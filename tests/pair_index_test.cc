// PairIndex unit tests: frequent-term selection and canonical key
// ordering, Find's swap semantics, record-stream invariants (packed tf
// header, window-bounded signed deltas, lexicographic record order), the
// on-disk section (heap and mmap round-trips, classic sections
// bit-identical with pairs on or off), and the
// segment plumbing — Seal and MergeSegments carrying IndexBuildOptions so
// compaction rebuilds pair lists over the merged corpus.

#include "index/pair_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/segment.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"
#include "text/corpus.h"

namespace fts {
namespace {

/// dfs: apple 4, banana 3, cherry 2, date 1 — distinct, so the top-f cut
/// is unambiguous; "apple banana" is adjacent twice, "apple cherry" once.
Corpus SmallCorpus() {
  Corpus corpus;
  corpus.AddDocument("apple banana cherry date");
  corpus.AddDocument("apple banana cherry");
  corpus.AddDocument("apple banana");
  corpus.AddDocument("cherry apple");
  return corpus;
}

IndexBuildOptions PairOptions(size_t frequent, uint32_t max_distance) {
  IndexBuildOptions options;
  options.pairs.frequent_terms = frequent;
  options.pairs.max_distance = max_distance;
  return options;
}

TEST(PairIndexTest, DisabledByDefault) {
  const Corpus corpus = SmallCorpus();
  EXPECT_EQ(IndexBuilder::Build(corpus).pair_index(), nullptr);
  EXPECT_EQ(IndexBuilder::Build(corpus, {}).pair_index(), nullptr);
}

TEST(PairIndexTest, FrequentTermsAreTopFByDfThenText) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(2, 3));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  ASSERT_EQ(pairs->num_frequent(), 2u);
  EXPECT_EQ(pairs->frequent_terms()[0], index.LookupToken("apple"));
  EXPECT_EQ(pairs->frequent_terms()[1], index.LookupToken("banana"));
  EXPECT_EQ(pairs->rank(index.LookupToken("apple")), 0u);
  EXPECT_EQ(pairs->rank(index.LookupToken("banana")), 1u);
  EXPECT_EQ(pairs->rank(index.LookupToken("cherry")), PairIndex::kNotFrequent);
}

TEST(PairIndexTest, DfTiesBreakByTokenTextAscending) {
  Corpus corpus;
  corpus.AddDocument("zebra mango");  // both df 2: text decides the ranking
  corpus.AddDocument("mango zebra");
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(1, 2));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  ASSERT_EQ(pairs->num_frequent(), 1u);
  EXPECT_EQ(pairs->frequent_terms()[0], index.LookupToken("mango"));
}

TEST(PairIndexTest, FindCanonicalizesAndReportsSwap) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(2, 3));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  const TokenId apple = index.LookupToken("apple");
  const TokenId banana = index.LookupToken("banana");
  const TokenId cherry = index.LookupToken("cherry");
  const TokenId date = index.LookupToken("date");

  const PairIndex::Lookup fwd = pairs->Find(apple, cherry);
  ASSERT_TRUE(fwd.eligible);
  EXPECT_FALSE(fwd.swapped);
  ASSERT_NE(fwd.list, nullptr);

  const PairIndex::Lookup rev = pairs->Find(cherry, apple);
  ASSERT_TRUE(rev.eligible);
  EXPECT_TRUE(rev.swapped);
  EXPECT_EQ(rev.list, fwd.list);  // same canonical list, mirrored reading

  // Both frequent: the better-ranked side (apple) is the stored first.
  const PairIndex::Lookup both = pairs->Find(banana, apple);
  ASSERT_TRUE(both.eligible);
  EXPECT_TRUE(both.swapped);

  // Neither side frequent: the pair index cannot answer, at any distance.
  EXPECT_FALSE(pairs->Find(cherry, date).eligible);
  // A term paired with itself is never a pair-index shape.
  EXPECT_FALSE(pairs->Find(apple, apple).eligible);
}

TEST(PairIndexTest, AbsentKeyWithEligiblePairIsProvablyEmpty) {
  Corpus corpus;
  corpus.AddDocument("apple banana");
  corpus.AddDocument("apple cherry");
  corpus.AddDocument("apple date");
  // "banana" and the frequent "apple" co-occur only in doc 0; "date" and
  // "banana" never share a document, and with f=1 only apple is frequent,
  // so (apple, X) keys exist while eligible-but-absent needs a frequent
  // term that never meets X. Build distance 1: "apple ... date" in doc 2
  // is adjacent, so pick a vocabulary where apple and some token are far
  // apart.
  corpus.AddDocument("apple x0 x1 x2 x3 x4 x5 x6 x7 faraway");
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(1, 1));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  const TokenId apple = index.LookupToken("apple");
  const TokenId faraway = index.LookupToken("faraway");
  const PairIndex::Lookup far = pairs->Find(apple, faraway);
  ASSERT_TRUE(far.eligible);
  EXPECT_EQ(far.list, nullptr);  // observed nowhere within the window
}

/// Decodes every record of one pair list into (node, tf_first, tf_second,
/// records) rows for direct inspection.
struct PairRow {
  NodeId node;
  uint32_t tf_first, tf_second;
  std::vector<std::pair<uint32_t, int32_t>> records;  // (off_first, delta)
};

std::vector<PairRow> DecodePairList(const BlockPostingList& list) {
  std::vector<PairRow> rows;
  BlockListCursor cursor(&list);
  while (cursor.NextEntry() != kInvalidNode) {
    const auto ps = cursor.GetPositions();
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    EXPECT_GE(ps.size(), 2u);  // tf header + at least one record
    PairRow row;
    row.node = cursor.current_node();
    row.tf_first = ps[0].offset;
    row.tf_second = ps[0].sentence;
    for (size_t i = 1; i < ps.size(); ++i) {
      row.records.emplace_back(ps[i].offset,
                               PairIndex::UnZigZag(ps[i].sentence));
    }
    rows.push_back(std::move(row));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  return rows;
}

TEST(PairIndexTest, RecordsAreCompleteWindowBoundedAndSorted) {
  Corpus corpus;
  // Doc 0: apple at 0, 3, 5; banana at 1, 4. Window (max_distance 2 ->
  // |delta| <= 3) captures every apple/banana pairing except none (all
  // gaps are <= 3 here).
  corpus.AddDocument("apple banana x apple banana apple");
  corpus.AddDocument("banana y y y apple");  // gap 4: outside the window
  corpus.AddDocument("apple z");             // no banana at all
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(2, 2));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  const TokenId apple = index.LookupToken("apple");
  const TokenId banana = index.LookupToken("banana");
  const PairIndex::Lookup lk = pairs->Find(apple, banana);
  ASSERT_TRUE(lk.eligible);
  ASSERT_NE(lk.list, nullptr);

  const std::vector<PairRow> rows = DecodePairList(*lk.list);
  // Doc 1's only co-occurrence has |delta| 4 > 3, so only doc 0 appears.
  ASSERT_EQ(rows.size(), 1u);
  const PairRow& row = rows[0];
  EXPECT_EQ(row.node, 0u);
  // tf header carries the full per-node term frequencies (for scoring),
  // not the record count.
  const TokenId first =
      lk.swapped ? banana : apple;  // canonical side the offsets belong to
  EXPECT_EQ(row.tf_first, first == apple ? 3u : 2u);
  EXPECT_EQ(row.tf_second, first == apple ? 2u : 3u);
  // Every in-window co-occurrence, sorted by (offset, delta), deltas
  // signed, nonzero, and within |delta| <= max_distance + 1.
  std::vector<std::pair<uint32_t, int32_t>> expected;
  const std::vector<uint32_t> apples = {0, 3, 5};
  const std::vector<uint32_t> bananas = {1, 4};
  for (uint32_t a : apples) {
    for (uint32_t b : bananas) {
      const int64_t delta = static_cast<int64_t>(b) - static_cast<int64_t>(a);
      if (delta != 0 && std::llabs(delta) <= 3) {
        if (first == apple) {
          expected.emplace_back(a, static_cast<int32_t>(delta));
        } else {
          expected.emplace_back(b, static_cast<int32_t>(-delta));
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(row.records, expected);
}

TEST(PairIndexTest, ValidatePassesOnBuiltIndex) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(3, 4));
  ASSERT_NE(index.pair_index(), nullptr);
  const Status s = index.pair_index()->Validate(index.num_nodes());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(PairIndexTest, ClassicSectionsAreBitIdenticalWithPairsOnOrOff) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex plain = IndexBuilder::Build(corpus);
  const InvertedIndex paired = IndexBuilder::Build(corpus, PairOptions(2, 3));
  std::string plain_blob, paired_blob;
  SaveIndexToString(plain, &plain_blob);
  SaveIndexToString(paired, &paired_blob);
  // The pair section is the last one before the 8-byte trailer; without a
  // pair index it is three zero varints (max_distance, no frequent terms,
  // no keys). Everything before it must be byte-identical: pair
  // construction never perturbs token lists, IL_ANY, or statistics.
  constexpr size_t kEmptyPairSection = 3;
  constexpr size_t kTrailer = 8;
  ASSERT_GT(plain_blob.size(), kEmptyPairSection + kTrailer);
  const size_t classic = plain_blob.size() - kEmptyPairSection - kTrailer;
  EXPECT_EQ(plain_blob.substr(classic, kEmptyPairSection),
            std::string(kEmptyPairSection, '\0'));
  ASSERT_GT(paired_blob.size(), plain_blob.size());
  EXPECT_EQ(plain_blob.substr(0, classic), paired_blob.substr(0, classic));
  // ...and the paired file really carries a section there.
  EXPECT_NE(paired_blob.substr(classic, kEmptyPairSection),
            std::string(kEmptyPairSection, '\0'));
}

TEST(PairIndexTest, V6RoundTripsHeapAndMmap) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(2, 3));
  const PairIndex* built = index.pair_index();
  ASSERT_NE(built, nullptr);

  std::string blob;
  SaveIndexToString(index, &blob);  // default format carries the section
  ASSERT_EQ(blob[6], '6');

  InvertedIndex heap;
  ASSERT_TRUE(LoadIndexFromString(blob, &heap).ok());
  const std::string path = ::testing::TempDir() + "/fts_pair_roundtrip.idx";
  ASSERT_TRUE(SaveIndexToFile(index, path).ok());
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  std::remove(path.c_str());

  for (const InvertedIndex* loaded : {&heap, &mapped}) {
    const PairIndex* pairs = loaded->pair_index();
    ASSERT_NE(pairs, nullptr);
    EXPECT_EQ(pairs->max_distance(), built->max_distance());
    EXPECT_EQ(pairs->frequent_terms(), built->frequent_terms());
    ASSERT_EQ(pairs->num_keys(), built->num_keys());
    for (size_t i = 0; i < built->num_keys(); ++i) {
      EXPECT_EQ(pairs->key(i), built->key(i)) << i;
      EXPECT_EQ(DecodePairList(pairs->list(i)).size(),
                DecodePairList(built->list(i)).size())
          << i;
    }
    EXPECT_TRUE(pairs->Validate(loaded->num_nodes()).ok());
  }
}

TEST(PairIndexTest, V6WithoutPairsLoadsAsNoPairIndex) {
  // A pair-free index carries the empty section shape and loads with the
  // feature off.
  const InvertedIndex index = IndexBuilder::Build(SmallCorpus());
  std::string blob;
  SaveIndexToString(index, &blob);
  ASSERT_EQ(blob[6], '6');
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(blob, &loaded).ok());
  EXPECT_EQ(loaded.pair_index(), nullptr);
}

TEST(PairIndexTest, MemoryUsageCountsPairLists) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex plain = IndexBuilder::Build(corpus);
  const InvertedIndex paired = IndexBuilder::Build(corpus, PairOptions(2, 3));
  EXPECT_GT(paired.MemoryUsage(), plain.MemoryUsage());
  EXPECT_GT(paired.pair_index()->MemoryUsage(), 0u);
}

TEST(PairIndexTest, StatsKeySeparatorCannotCollideWithTokens) {
  EXPECT_EQ(PairIndex::StatsKey("apple", "banana"),
            std::string("apple\x1f") + "banana");
  // Tokenizer output never contains the separator byte, so a pair key can
  // never equal (or prefix-collide with) a real token's df entry.
  EXPECT_NE(PairIndex::StatsKey("a", "b"), "ab");
}

TEST(PairIndexTest, SealAndMergeCarryBuildOptions) {
  IndexBuildOptions options = PairOptions(2, 3);

  SegmentBuffer buffer;
  buffer.Add("apple banana cherry");
  buffer.Add("apple banana");
  std::shared_ptr<const InvertedIndex> sealed = buffer.Seal(options);
  ASSERT_NE(sealed->pair_index(), nullptr);
  EXPECT_GT(sealed->pair_index()->num_keys(), 0u);

  SegmentBuffer buffer2;
  buffer2.Add("banana apple date");
  std::shared_ptr<const InvertedIndex> sealed2 = buffer2.Seal(options);

  std::vector<SegmentView> views(2);
  views[0].index = sealed.get();
  views[0].base = 0;
  views[1].index = sealed2.get();
  views[1].base = static_cast<NodeId>(sealed->num_nodes());
  auto merged = MergeSegments(views, options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // The merged segment's pair lists are rebuilt over the merged corpus —
  // exactly what a single-shot build of the same documents produces.
  Corpus all;
  all.AddDocument("apple banana cherry");
  all.AddDocument("apple banana");
  all.AddDocument("banana apple date");
  const InvertedIndex reference = IndexBuilder::Build(all, options);
  ASSERT_NE(merged->pair_index(), nullptr);
  EXPECT_EQ(merged->pair_index()->num_keys(),
            reference.pair_index()->num_keys());
  EXPECT_EQ(merged->pair_index()->frequent_terms().size(),
            reference.pair_index()->frequent_terms().size());
  std::string merged_blob, reference_blob;
  SaveIndexToString(*merged, &merged_blob);
  SaveIndexToString(reference, &reference_blob);
  EXPECT_EQ(merged_blob, reference_blob);
}

}  // namespace
}  // namespace fts

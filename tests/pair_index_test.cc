// PairIndex unit tests: frequent-term selection and canonical key
// ordering, Find's swap semantics, record-stream invariants (packed tf
// header, window-bounded signed deltas, lexicographic record order), the
// on-disk section (heap and mmap round-trips, classic sections
// bit-identical with pairs on or off, crafted records failing the routed
// query that reads them in both load modes), the builder against a brute-force
// enumeration of a generated corpus, routed evaluation at the top of the
// distance range, and the segment plumbing — Seal and MergeSegments
// carrying IndexBuildOptions so compaction rebuilds pair lists over the
// merged corpus.

#include "index/pair_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "eval/ppred_engine.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/segment.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"
#include "lang/parser.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

#include "v8_reseal.h"

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

  friend bool operator==(const PairRow&, const PairRow&) = default;
};

std::vector<PairRow> DecodePairList(const BlockPostingList& list) {
  std::vector<PairRow> rows;
  BlockListCursor cursor(&list);
  while (cursor.NextEntry() != kInvalidNode) {
    const auto rs = cursor.GetRecords();
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    EXPECT_GE(rs.size(), 2u);  // tf header + at least one record
    PairRow row;
    row.node = cursor.current_node();
    row.tf_first = rs[0].first;
    row.tf_second = rs[0].second;
    for (size_t i = 1; i < rs.size(); ++i) {
      row.records.emplace_back(rs[i].first, PairIndex::UnZigZag(rs[i].second));
    }
    rows.push_back(std::move(row));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  return rows;
}

/// distance(p, q, k) over tokens `a` and `b` of `index` through
/// PpredEngine under `routing`: kForce reads the pair list through
/// TryEvaluatePairPlan, which checks every pair record it reads; kOff runs
/// the position pipeline and never touches a pair list.
StatusOr<QueryResult> EvaluateDistance(const InvertedIndex& index,
                                       const std::string& a, const std::string& b,
                                       uint64_t k, PairRouting routing) {
  const std::string query = "SOME p SOME q (p HAS '" + a + "' AND q HAS '" + b +
                            "' AND distance(p, q, " + std::to_string(k) + "))";
  PpredEngine engine(&index, ScoringKind::kNone, CursorMode::kAdaptive, routing);
  return engine.Evaluate(*ParseQuery(query, SurfaceLanguage::kComp));
}

/// Routes distance(p, q, max_distance) over every key of `index`'s pair
/// index and expects the pipeline's nodes: each routed query reads every
/// entry of its list through TryEvaluatePairPlan's record checks.
void ExpectEveryKeyRoutesLikeThePipeline(const InvertedIndex& index) {
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);
  for (size_t i = 0; i < pairs->num_keys(); ++i) {
    const std::string& a = index.token_text(pairs->key(i).first);
    const std::string& b = index.token_text(pairs->key(i).second);
    const auto routed =
        EvaluateDistance(index, a, b, pairs->max_distance(), PairRouting::kForce);
    ASSERT_TRUE(routed.ok()) << a << "," << b << ": " << routed.status().ToString();
    EXPECT_EQ(routed->counters.pair_seeks, 1u) << a << "," << b;
    const auto pipeline =
        EvaluateDistance(index, a, b, pairs->max_distance(), PairRouting::kOff);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    EXPECT_EQ(routed->nodes, pipeline->nodes) << a << "," << b;
  }
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

TEST(PairIndexTest, ListsEqualABruteForceEnumerationOfEveryDocument) {
  CorpusGenOptions gen;
  gen.num_nodes = 600;
  const Corpus corpus = GenerateCorpus(gen);
  constexpr uint32_t kMaxDistance = 2;
  const InvertedIndex index =
      IndexBuilder::Build(corpus, PairOptions(4, kMaxDistance));
  const PairIndex* pairs = index.pair_index();
  ASSERT_NE(pairs, nullptr);

  // Every in-window co-occurrence of two distinct tokens, one of them
  // frequent, keyed the way Find canonicalizes: the better-ranked token
  // first, its offset and the signed delta to the other as the record.
  using Key = std::pair<TokenId, TokenId>;
  std::map<Key, std::vector<PairRow>> expected;
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    const TokenizedDocument& doc = corpus.doc(n);
    std::map<TokenId, uint32_t> tf;
    for (const TokenId t : doc.tokens) ++tf[t];
    std::map<Key, std::vector<std::pair<uint32_t, int32_t>>> records;
    for (size_t i = 0; i < doc.size(); ++i) {
      for (size_t j = i + 1; j < doc.size(); ++j) {
        const uint32_t off_i = doc.positions[i].offset;
        const uint32_t off_j = doc.positions[j].offset;
        ASSERT_LT(off_i, off_j);  // offsets increase within a document
        const int32_t gap = static_cast<int32_t>(off_j - off_i);
        if (gap > static_cast<int32_t>(kMaxDistance) + 1) break;
        const TokenId a = doc.tokens[i], b = doc.tokens[j];
        const size_t ra = pairs->rank(a), rb = pairs->rank(b);
        if (a == b || (ra == PairIndex::kNotFrequent &&
                       rb == PairIndex::kNotFrequent)) {
          continue;
        }
        if (ra < rb) {
          records[{a, b}].emplace_back(off_i, gap);
        } else {
          records[{b, a}].emplace_back(off_j, -gap);
        }
      }
    }
    for (auto& [key, recs] : records) {
      std::sort(recs.begin(), recs.end());
      expected[key].push_back({n, tf[key.first], tf[key.second], recs});
    }
  }

  // The stored keys are exactly the co-occurring eligible pairs, and each
  // list holds exactly its pair's rows.
  ASSERT_EQ(pairs->num_keys(), expected.size());
  size_t multi_block_lists = 0, bitset_blocks = 0;
  for (size_t i = 0; i < pairs->num_keys(); ++i) {
    const PairTermKey& key = pairs->key(i);
    const auto it = expected.find({key.first, key.second});
    ASSERT_NE(it, expected.end()) << key.first << "," << key.second;
    EXPECT_EQ(DecodePairList(pairs->list(i)), it->second)
        << key.first << "," << key.second;
    const BlockPostingList& list = pairs->list(i);
    if (list.num_blocks() > 1) ++multi_block_lists;
    for (const BlockPostingList::SkipEntry& skip : list.skips()) {
      if (skip.encoding == BlockPostingList::kEncodingBitset) ++bitset_blocks;
    }
  }
  for (const auto& [key, rows] : expected) {
    const PairIndex::Lookup lk = pairs->Find(key.first, key.second);
    EXPECT_TRUE(lk.eligible && !lk.swapped && lk.list != nullptr)
        << key.first << "," << key.second;
  }
  // The corpus reaches the writer's multi-block and bitset paths.
  EXPECT_GT(multi_block_lists, 0u);
  EXPECT_GT(bitset_blocks, 0u);
}

TEST(PairIndexTest, WindowsAtTheTopOfTheDistanceRangeRouteLikeThePipeline) {
  Corpus corpus;
  corpus.AddDocument("apple banana cherry");
  corpus.AddDocument("banana x x x x apple");
  corpus.AddDocument("cherry date apple");
  // Offset gaps at the int32 edge of a record's delta, and past it.
  constexpr uint32_t kInt32Max = std::numeric_limits<int32_t>::max();
  ASSERT_TRUE(corpus
                  .AddTokensWithPositions({"apple", "banana"},
                                          {{0, 0, 0}, {kInt32Max, 0, 0}})
                  .ok());
  ASSERT_TRUE(corpus
                  .AddTokensWithPositions({"banana", "apple"},
                                          {{0, 0, 0}, {kInt32Max + 6u, 0, 0}})
                  .ok());
  for (const uint32_t max_distance :
       {kInt32Max, std::numeric_limits<uint32_t>::max()}) {
    const InvertedIndex index =
        IndexBuilder::Build(corpus, PairOptions(2, max_distance));
    const PairIndex* pairs = index.pair_index();
    ASSERT_NE(pairs, nullptr) << max_distance;
    ASSERT_EQ(pairs->max_distance(), PairIndex::kMaxDistance);
    for (const uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{5},
                             uint64_t{PairIndex::kMaxDistance},
                             uint64_t{max_distance}}) {
      const auto run = [&](PairRouting routing) {
        return EvaluateDistance(index, "apple", "banana", k, routing);
      };
      const auto pipeline = run(PairRouting::kOff);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      for (const PairRouting routing : {PairRouting::kAuto, PairRouting::kForce}) {
        const auto routed = run(routing);
        ASSERT_TRUE(routed.ok())
            << max_distance << " k=" << k << ": " << routed.status().ToString();
        EXPECT_EQ(routed->nodes, pipeline->nodes) << max_distance << " k=" << k;
        if (routing == PairRouting::kForce) {
          // Distances the pair lists answer route; larger ones cannot.
          EXPECT_EQ(routed->counters.pair_seeks,
                    k <= PairIndex::kMaxDistance ? 1u : 0u)
              << max_distance << " k=" << k;
        }
      }
    }
  }
}

TEST(PairIndexTest, EveryKeyOfABuiltIndexRoutesLikeThePipeline) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(3, 4));
  ExpectEveryKeyRoutesLikeThePipeline(index);
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

TEST(PairIndexTest, V8RoundTripsHeapAndMmap) {
  const Corpus corpus = SmallCorpus();
  const InvertedIndex index = IndexBuilder::Build(corpus, PairOptions(2, 3));
  const PairIndex* built = index.pair_index();
  ASSERT_NE(built, nullptr);

  std::string blob;
  SaveIndexToString(index, &blob);  // default format carries the section
  ASSERT_EQ(blob[6], '8');

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
    ExpectEveryKeyRoutesLikeThePipeline(*loaded);
  }
}

/// `base` (a saved index without pair lists) with its empty pair section
/// replaced by the frequent term `first` and one key, (first, second),
/// whose list holds one entry: node `node` with `records` (the tf header,
/// then the co-occurrences), encoded as the writer encodes them, in one
/// block. Resealed, so only the record checks can reject it.
std::string WithOnePairList(std::string base, uint32_t max_distance,
                            TokenId first, TokenId second, NodeId node,
                            const std::vector<PairRecord>& records) {
  const uint32_t count = static_cast<uint32_t>(records.size());
  std::vector<uint8_t> pos_bytes;
  BlockListWriter::EncodeRecords(records, &pos_bytes);
  std::string payload;
  PutVarint32(&payload, node);
  PutVarint32(&payload, count);
  PutVarint32(&payload, static_cast<uint32_t>(pos_bytes.size()));
  payload.append(pos_bytes.begin(), pos_bytes.end());
  std::string section;
  PutVarint32(&section, max_distance);
  PutVarint64(&section, 1);  // frequent terms: `first`
  PutVarint32(&section, first);
  PutVarint64(&section, 1);  // keys: (first, second), first delta-coded from 0
  PutVarint32(&section, first);
  PutVarint32(&section, second);
  PutVarint32(&section, 2);      // lanes
  PutVarint64(&section, 1);      // entries
  PutVarint64(&section, count);  // positions
  PutVarint32(&section, BlockPostingList::kDefaultBlockSize);
  PutVarint64(&section, 1);  // blocks
  PutVarint32(&section, node);   // max_node
  PutVarint32(&section, 0);      // byte offset
  PutVarint32(&section, 1);      // entry count
  PutVarint32(&section, 0);      // checksum, filled in by the reseal
  PutVarint32(&section, count);  // max_tf
  PutVarint32(&section, BlockPostingList::kEncodingVarint);
  PutVarint64(&section, payload.size());
  section += payload;
  constexpr size_t kEmptyPairSection = 3;
  constexpr size_t kTrailer = 8;
  base.replace(base.size() - kTrailer - kEmptyPairSection, kEmptyPairSection,
               section);
  EXPECT_TRUE(ResealV8(&base));
  return base;
}

TEST(PairIndexTest, CraftedRecordsFailTheRoutedQueryInBothLoadModes) {
  // Pair records the builder never writes, in a sound, resealed block:
  // neither load mode parses a record, and the routed query that reads the
  // entry fails closed with Corruption through TryEvaluatePairPlan, while
  // the pipeline, which never reads a pair list, still answers.
  Corpus corpus;
  corpus.AddDocument("apple banana");
  const InvertedIndex plain = IndexBuilder::Build(corpus);
  std::string base;
  SaveIndexToString(plain, &base);
  const TokenId apple = plain.LookupToken("apple");
  const TokenId banana = plain.LookupToken("banana");
  constexpr uint32_t kMaxDistance = 1;  // records' |delta| <= 2
  const uint32_t adjacent = PairIndex::ZigZag(1);
  struct Case {
    std::string error;  // empty: the control, as the builder writes it
    std::vector<PairRecord> records;
  };
  const std::vector<Case> cases = {
      {"", {{1, 1}, {0, adjacent}}},
      {"pair-list entry without records", {{1, 1}}},
      {"pair-list entry with zero term frequency", {{0, 1}, {0, adjacent}}},
      {"pair-list record delta out of window", {{1, 1}, {0, PairIndex::ZigZag(3)}}},
  };
  const std::string path = ::testing::TempDir() + "/fts_crafted_pair_records.idx";
  for (const Case& c : cases) {
    const std::string blob =
        WithOnePairList(base, kMaxDistance, apple, banana, 0, c.records);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    InvertedIndex eager, mapped;
    ASSERT_TRUE(LoadIndexFromString(blob, &eager).ok()) << c.error;
    ASSERT_TRUE(
        LoadIndexFromFile(path, &mapped, {.mode = LoadOptions::Mode::kMmap}).ok())
        << c.error;
    for (const InvertedIndex* loaded : {&eager, &mapped}) {
      const auto pipeline =
          EvaluateDistance(*loaded, "apple", "banana", 1, PairRouting::kOff);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      EXPECT_EQ(pipeline->nodes, std::vector<NodeId>{0});
      const auto routed =
          EvaluateDistance(*loaded, "apple", "banana", 1, PairRouting::kForce);
      if (c.error.empty()) {
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        EXPECT_EQ(routed->counters.pair_seeks, 1u);
        EXPECT_EQ(routed->nodes, pipeline->nodes);
        continue;
      }
      ASSERT_FALSE(routed.ok()) << c.error;
      EXPECT_EQ(routed.status().code(), StatusCode::kCorruption) << c.error;
      EXPECT_NE(routed.status().message().find(c.error), std::string::npos)
          << routed.status().ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(PairIndexTest, V8WithoutPairsLoadsAsNoPairIndex) {
  // A pair-free index carries the empty section shape and loads with the
  // feature off.
  const InvertedIndex index = IndexBuilder::Build(SmallCorpus());
  std::string blob;
  SaveIndexToString(index, &blob);
  ASSERT_EQ(blob[6], '8');
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

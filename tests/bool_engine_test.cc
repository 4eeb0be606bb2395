#include "eval/bool_engine.h"

#include <gtest/gtest.h>

#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "lang/parser.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

struct BoolEngineFixture : public ::testing::Test {
  void SetUp() override {
    corpus.AddDocument("software users guide");        // 0
    corpus.AddDocument("software testing handbook");   // 1
    corpus.AddDocument("usability study");             // 2
    corpus.AddDocument("software users testing");      // 3
    corpus.AddDocument("");                            // 4 (empty)
    index = IndexBuilder::Build(corpus);
  }

  std::vector<NodeId> Run(const std::string& query) {
    BoolEngine engine(&index, ScoringKind::kNone);
    auto parsed = ParseQuery(query, SurfaceLanguage::kBool);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto result = engine.Evaluate(*parsed);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->nodes : std::vector<NodeId>{};
  }

  Corpus corpus;
  InvertedIndex index;
};

TEST_F(BoolEngineFixture, SingleToken) {
  EXPECT_EQ(Run("'software'"), (std::vector<NodeId>{0, 1, 3}));
}

TEST_F(BoolEngineFixture, OovTokenMatchesNothing) {
  EXPECT_EQ(Run("'zzz'"), (std::vector<NodeId>{}));
}

TEST_F(BoolEngineFixture, PaperSection53Example) {
  // ('software' AND 'users' AND NOT 'testing') OR 'usability'
  EXPECT_EQ(Run("('software' AND 'users' AND NOT 'testing') OR 'usability'"),
            (std::vector<NodeId>{0, 2}));
}

TEST_F(BoolEngineFixture, AndOrSemantics) {
  EXPECT_EQ(Run("'software' AND 'users'"), (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(Run("'usability' OR 'testing'"), (std::vector<NodeId>{1, 2, 3}));
}

TEST_F(BoolEngineFixture, NotComplementsAgainstAllNodes) {
  // Includes the empty node 4.
  EXPECT_EQ(Run("NOT 'software'"), (std::vector<NodeId>{2, 4}));
}

TEST_F(BoolEngineFixture, AnyMatchesNonEmptyNodes) {
  EXPECT_EQ(Run("ANY"), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(Run("NOT ANY"), (std::vector<NodeId>{4}));
}

TEST_F(BoolEngineFixture, DoubleNegation) {
  EXPECT_EQ(Run("NOT (NOT 'software')"), (std::vector<NodeId>{0, 1, 3}));
}

TEST_F(BoolEngineFixture, AndNotAvoidsUniverseScan) {
  BoolEngine engine(&index, ScoringKind::kNone);
  auto with_diff = ParseQuery("'software' AND NOT 'testing'", SurfaceLanguage::kBool);
  ASSERT_TRUE(with_diff.ok());
  auto r1 = engine.Evaluate(*with_diff);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->nodes, (std::vector<NodeId>{0}));
  // The difference path scans only the two token lists: 3 + 2 entries.
  EXPECT_EQ(r1->counters.entries_scanned, 5u);

  auto with_not = ParseQuery("NOT 'testing'", SurfaceLanguage::kBool);
  ASSERT_TRUE(with_not.ok());
  auto r2 = engine.Evaluate(*with_not);
  ASSERT_TRUE(r2.ok());
  // The complement path pays a universe scan on top of the token list.
  EXPECT_EQ(r2->counters.entries_scanned, 2u + index.num_nodes());
}

TEST_F(BoolEngineFixture, RejectsCompConstructs) {
  BoolEngine engine(&index, ScoringKind::kNone);
  auto parsed = ParseQuery("SOME p (p HAS 'a')", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto result = engine.Evaluate(*parsed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST_F(BoolEngineFixture, TfIdfScoresRankMoreSelectiveMatchesHigher) {
  BoolEngine engine(&index, ScoringKind::kTfIdf);
  auto parsed = ParseQuery("'software' OR 'usability'", SurfaceLanguage::kBool);
  ASSERT_TRUE(parsed.ok());
  auto result = engine.Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->nodes.size(), 4u);
  ASSERT_EQ(result->scores.size(), 4u);
  for (double s : result->scores) EXPECT_GT(s, 0.0);
  // Node 2 matches 'usability' (df 1, idf high); its score should exceed
  // node 1's, which matches only the common 'software' (df 3).
  const size_t i2 = std::find(result->nodes.begin(), result->nodes.end(), 2u) -
                    result->nodes.begin();
  const size_t i1 = std::find(result->nodes.begin(), result->nodes.end(), 1u) -
                    result->nodes.begin();
  EXPECT_GT(result->scores[i2], result->scores[i1]);
}

TEST_F(BoolEngineFixture, ProbabilisticScoresStayInUnitInterval) {
  BoolEngine engine(&index, ScoringKind::kProbabilistic);
  for (const char* q : {"'software' AND 'users'", "'software' OR 'usability'",
                        "'software' AND NOT 'testing'", "NOT 'software'"}) {
    auto parsed = ParseQuery(q, SurfaceLanguage::kBool);
    ASSERT_TRUE(parsed.ok());
    auto result = engine.Evaluate(*parsed);
    ASSERT_TRUE(result.ok()) << q;
    for (double s : result->scores) {
      EXPECT_GE(s, 0.0) << q;
      EXPECT_LE(s, 1.0) << q;
    }
  }
}

TEST_F(BoolEngineFixture, NoScoresWhenScoringDisabled) {
  BoolEngine engine(&index, ScoringKind::kNone);
  auto parsed = ParseQuery("'software'", SurfaceLanguage::kBool);
  ASSERT_TRUE(parsed.ok());
  auto result = engine.Evaluate(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->scores.empty());
}

// ---------------------------------------------------------------------------
// Dense-block word-level AND: the bitset fast path must be exercised (its
// counter proves it ran) and bit-identical to the entry-at-a-time zig-zag.
// ---------------------------------------------------------------------------

Corpus DenseCorpus() {
  CorpusGenOptions opts;
  opts.num_nodes = 400;
  opts.min_doc_len = 10;
  opts.max_doc_len = 30;
  opts.vocabulary = 100;
  opts.num_topic_tokens = 2;
  opts.topic_doc_fraction = 1.0;  // every doc: topic lists are maximally dense
  opts.topic_occurrences = 3;
  return GenerateCorpus(opts);
}

QueryResult EvalOrDie(const BoolEngine& engine, const std::string& query) {
  auto parsed = ParseQuery(query, SurfaceLanguage::kBool);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto result = engine.Evaluate(*parsed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : QueryResult{};
}

TEST(BoolEngineDenseBlocks, WordLevelAndIsBitIdenticalToZigZag) {
  const Corpus corpus = DenseCorpus();
  InvertedIndex hybrid = IndexBuilder::Build(corpus);
  ASSERT_TRUE(hybrid.block_list_for_text("topic0")->has_bitset_blocks());
  ASSERT_TRUE(hybrid.block_list_for_text("topic1")->has_bitset_blocks());

  // Same corpus built with bitset blocks disabled: the all-varint control.
  const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(false);
  InvertedIndex varint = IndexBuilder::Build(corpus);
  BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
  ASSERT_FALSE(varint.block_list_for_text("topic0")->has_bitset_blocks());

  const std::string query = "'topic0' AND 'topic1'";
  BoolEngine seek_hybrid(&hybrid, ScoringKind::kTfIdf, CursorMode::kSeek);
  BoolEngine seq_hybrid(&hybrid, ScoringKind::kTfIdf, CursorMode::kSequential);
  BoolEngine seek_varint(&varint, ScoringKind::kTfIdf, CursorMode::kSeek);

  const QueryResult fast = EvalOrDie(seek_hybrid, query);
  const QueryResult seq = EvalOrDie(seq_hybrid, query);
  const QueryResult control = EvalOrDie(seek_varint, query);

  // The word-AND path actually ran (and only where both blocks are dense).
  EXPECT_GT(fast.counters.bitset_blocks_intersected, 0u);
  EXPECT_EQ(seq.counters.bitset_blocks_intersected, 0u);
  EXPECT_EQ(control.counters.bitset_blocks_intersected, 0u);

  ASSERT_FALSE(fast.nodes.empty());
  EXPECT_EQ(fast.nodes, seq.nodes);
  EXPECT_EQ(fast.nodes, control.nodes);
  ASSERT_EQ(fast.scores.size(), seq.scores.size());
  ASSERT_EQ(fast.scores.size(), control.scores.size());
  for (size_t i = 0; i < fast.scores.size(); ++i) {
    // Bit-identical, not approximately equal: the fast path must feed the
    // exact same pos_count into the exact same JoinScore expression.
    EXPECT_EQ(fast.scores[i], seq.scores[i]) << i;
    EXPECT_EQ(fast.scores[i], control.scores[i]) << i;
  }
}

TEST(BoolEngineDenseBlocks, PerListOptOutDisablesFastPath) {
  const Corpus corpus = DenseCorpus();
  const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(false);
  InvertedIndex varint = IndexBuilder::Build(corpus);
  BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
  BoolEngine engine(&varint, ScoringKind::kNone, CursorMode::kSeek);
  const QueryResult r = EvalOrDie(engine, "'topic0' AND 'topic1'");
  EXPECT_EQ(r.counters.bitset_blocks_intersected, 0u);
  EXPECT_FALSE(r.nodes.empty());
}

TEST(SeekEfficiencyTest, ZigZagAndDecodesSubLinearly) {
  // A rare token AND a dense token: the seek engine must touch a small
  // fraction of the dense list's entries, while the sequential engine walks
  // both lists end to end. This pins the acceptance criterion that seeks
  // perform sub-linear entry decodes, observed through EvalCounters.
  Corpus corpus;
  for (int d = 0; d < 4000; ++d) {
    std::string text = "filler common ";
    if (d % 2 == 0) text += "dense ";
    if (d % 500 == 0) text += "needle ";
    corpus.AddDocument(text);
  }
  InvertedIndex index = IndexBuilder::Build(corpus);
  BoolEngine sequential(&index, ScoringKind::kNone);
  BoolEngine seeking(&index, ScoringKind::kNone, CursorMode::kSeek);
  LangExprPtr q = LangExpr::And(LangExpr::Token("needle"), LangExpr::Token("dense"));

  auto seq = sequential.Evaluate(q);
  auto seek = seeking.Evaluate(q);
  ASSERT_TRUE(seq.ok() && seek.ok());
  EXPECT_EQ(seq->nodes, seek->nodes);
  ASSERT_FALSE(seek->nodes.empty());

  const uint64_t dense_entries = index.df(index.LookupToken("dense"));
  ASSERT_EQ(dense_entries, 2000u);
  // Sequential: every entry of both lists is scanned, which with the block
  // representation as the only resident form means a full linear decode.
  EXPECT_GE(seq->counters.entries_scanned, dense_entries);
  EXPECT_GE(seq->counters.entries_decoded, dense_entries);
  EXPECT_EQ(seq->counters.skip_checks, 0u);
  // Seek: a handful of landings, with sub-linear block decodes.
  EXPECT_LT(seek->counters.entries_scanned, dense_entries / 10);
  EXPECT_GT(seek->counters.skip_checks, 0u);
  EXPECT_GT(seek->counters.blocks_decoded, 0u);
  EXPECT_LT(seek->counters.entries_decoded, dense_entries);
  EXPECT_LT(seek->counters.entries_decoded, seq->counters.entries_decoded);
  // BOOL never touches PosLists in either mode.
  EXPECT_EQ(seq->counters.positions_decoded, 0u);
  EXPECT_EQ(seek->counters.positions_decoded, 0u);
}

}  // namespace
}  // namespace fts

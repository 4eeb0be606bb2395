#include "scoring/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/fta.h"
#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "index/index_builder.h"
#include "lang/parser.h"
#include "scoring/probabilistic.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

struct ScoringFixture : public ::testing::Test {
  void SetUp() override {
    CorpusGenOptions opts;
    opts.seed = 17;
    opts.num_nodes = 80;
    opts.min_doc_len = 20;
    opts.max_doc_len = 80;
    opts.vocabulary = 300;
    opts.num_topic_tokens = 4;
    opts.topic_doc_fraction = 0.6;
    opts.topic_occurrences = 3;
    corpus = GenerateCorpus(opts);
    index = IndexBuilder::Build(corpus);
  }
  Corpus corpus;
  InvertedIndex index;
};

// ---------------------------------------------------------------------------
// Theorem 2: the TF-IDF score transformations propagate, through the
// algebra, exactly the classical cosine TF-IDF score for conjunctive and
// disjunctive queries (verified at node granularity, where projection's
// score summation realizes the theorem's per-token invariant).
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, Theorem2SingleToken) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  auto plan = FtaExpr::Project(FtaExpr::Token("topic0"), {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, Theorem2Conjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto join = FtaExpr::Join(FtaExpr::Token("topic0"), FtaExpr::Token("topic1"));
  auto plan = FtaExpr::Project(join, {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9)
        << "node " << rel->tuple(i).node;
  }
}

TEST_F(ScoringFixture, Theorem2ThreeWayConjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(),
                        {"topic0", "topic1", "topic2"});
  auto join = FtaExpr::Join(FtaExpr::Join(FtaExpr::Token("topic0"),
                                          FtaExpr::Token("topic1")),
                            FtaExpr::Token("topic2"));
  auto plan = FtaExpr::Project(join, {});
  ASSERT_TRUE(plan.ok());
  auto rel = EvaluateFta(*plan, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, Theorem2Disjunction) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto l = FtaExpr::Project(FtaExpr::Token("topic0"), {});
  auto r = FtaExpr::Project(FtaExpr::Token("topic1"), {});
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  auto u = FtaExpr::Union(*l, *r);
  ASSERT_TRUE(u.ok());
  auto rel = EvaluateFta(*u, index, &model, nullptr);
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_NEAR(rel->tuple(i).score, model.DirectNodeScore(rel->tuple(i).node), 1e-9);
  }
}

TEST_F(ScoringFixture, JoinConservesTotalScore) {
  // The "first law of thermodynamics" remark in Section 3.1: the join
  // neither creates nor destroys score mass.
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0", "topic1"});
  auto t0 = *OpScanToken(index, "topic0", &model, nullptr);
  auto t1 = *OpScanToken(index, "topic1", &model, nullptr);
  auto joined = OpJoin(t0, t1, &model, nullptr);

  // Sum input scores restricted to nodes surviving the join.
  std::vector<NodeId> nodes = joined.Nodes();
  auto sum_for = [&nodes](const FtRelation& r) {
    double s = 0;
    for (size_t i = 0; i < r.size(); ++i) {
      if (std::binary_search(nodes.begin(), nodes.end(), r.tuple(i).node)) {
        s += r.tuple(i).score;
      }
    }
    return s;
  };
  const double before = sum_for(t0) + sum_for(t1);
  double after = 0;
  for (size_t i = 0; i < joined.size(); ++i) after += joined.tuple(i).score;
  EXPECT_NEAR(before, after, 1e-9);
}

TEST_F(ScoringFixture, PipelinedEnginesMatchCompTfIdfOnConjunctions) {
  BoolEngine bool_engine(&index, ScoringKind::kTfIdf);
  CompEngine comp_engine(&index, ScoringKind::kTfIdf);
  auto parsed = ParseQuery("'topic0' AND 'topic1'", SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto b = bool_engine.Evaluate(*parsed);
  auto c = comp_engine.Evaluate(*parsed);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(b->nodes, c->nodes);
  for (size_t i = 0; i < b->nodes.size(); ++i) {
    EXPECT_NEAR(b->scores[i], c->scores[i], 1e-9);
  }
}

TEST_F(ScoringFixture, IdfDecreasesWithDocumentFrequency) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  // Background token w0 is the most frequent Zipf rank; topics are planted
  // in ~60% of documents. Compare a rare background token to w0.
  const double idf_common = model.Idf("w0");
  const double idf_rare = model.Idf("topic0");
  EXPECT_GT(idf_common, 0.0);
  // Not asserting order between these two specific tokens in general —
  // instead check the monotone law directly on document frequencies.
  const TokenId w0 = index.LookupToken("w0");
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(w0, kInvalidToken);
  ASSERT_NE(t0, kInvalidToken);
  if (index.df(w0) > index.df(t0)) {
    EXPECT_LT(idf_common, idf_rare);
  } else if (index.df(w0) < index.df(t0)) {
    EXPECT_GT(idf_common, idf_rare);
  }
}

TEST_F(ScoringFixture, OovQueryTokenScoresZero) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"doesnotexist"});
  EXPECT_EQ(model.Idf("doesnotexist"), 0.0);
  EXPECT_EQ(model.DirectNodeScore(0), 0.0);
}

// ---------------------------------------------------------------------------
// Probabilistic model (Section 3.2).
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, ProbabilisticLeafScoresAreProbabilities) {
  ProbabilisticScoreModel model(index.scoring_stats());
  for (const char* tok : {"topic0", "w0", "w5"}) {
    const TokenId id = index.LookupToken(tok);
    if (id == kInvalidToken) continue;
    const double p = model.LeafScore(index, id, 0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(ScoringFixture, ProbabilisticOperatorsStayInUnitInterval) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const double a = 0.7, b = 0.4;
  EXPECT_NEAR(model.JoinScore(a, 3, b, 5), a * b, 1e-12);
  EXPECT_NEAR(model.UnionBoth(a, b), 1 - (1 - a) * (1 - b), 1e-12);
  EXPECT_NEAR(model.ProjectCombine(a, b), 1 - (1 - a) * (1 - b), 1e-12);
  EXPECT_NEAR(model.IntersectScore(a, b), a * b, 1e-12);
  EXPECT_NEAR(model.NegateScore(a), 1 - a, 1e-12);
  EXPECT_NEAR(model.DifferenceScore(a), a, 1e-12);
}

TEST_F(ScoringFixture, ProbabilisticSelectAttenuatesByDistance) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const auto* dist = PredicateRegistry::Default().Find("distance");
  std::vector<PositionInfo> near{{10, 0, 0}, {11, 0, 0}};
  std::vector<PositionInfo> far{{10, 0, 0}, {18, 0, 0}};
  std::vector<int64_t> consts{10};
  EXPECT_GT(model.SelectScore(0.8, *dist, near, consts),
            model.SelectScore(0.8, *dist, far, consts));
}

TEST_F(ScoringFixture, ProbabilisticEntryScoreIsNoisyOr) {
  ProbabilisticScoreModel model(index.scoring_stats());
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(t0, kInvalidToken);
  const double p = model.LeafScore(index, t0, 0);
  EXPECT_NEAR(model.EntryScore(index, t0, 0, 3), 1 - std::pow(1 - p, 3), 1e-12);
}

TEST_F(ScoringFixture, TfIdfEntryScoreIsLinear) {
  TfIdfScoreModel model(&index, index.scoring_stats(), {"topic0"});
  const TokenId t0 = index.LookupToken("topic0");
  ASSERT_NE(t0, kInvalidToken);
  const double p = model.LeafScore(index, t0, 0);
  EXPECT_NEAR(model.EntryScore(index, t0, 0, 4), 4 * p, 1e-12);
}

// ---------------------------------------------------------------------------
// Block-header scoring reads: df/idf lookups and tf (occurs) reads are
// served from the resident block lists' headers. Pure df lookups decode
// nothing at all, and even DirectNodeScore — which seeks posting entries —
// never decodes position payloads.
// ---------------------------------------------------------------------------

TEST_F(ScoringFixture, DfLookupsDecodeNoBlocks) {
  std::vector<std::string> tokens = {"topic0", "topic1", "w0", "w5", "zzz-oov"};
  EvalCounters counters;
  TfIdfScoreModel model(&index, index.scoring_stats(), tokens, &counters);
  // Model construction computes idf (hence df) for every query token.
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.entries_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
  for (const std::string& t : tokens) {
    (void)model.Idf(t);
  }
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    const TokenId t0 = index.LookupToken("topic0");
    (void)model.LeafScore(index, t0, n);
    (void)model.EntryScore(index, t0, n, 3);
  }
  // df/idf and the per-entry static scores come from block headers and
  // precomputed node scalars: still not a single block decoded — and the
  // decoded-block cache sees no traffic at all (no bulk decodes, no hits,
  // no misses), so caching adds zero work to df/idf-only lookups.
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.entries_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
  EXPECT_EQ(counters.blocks_bulk_decoded, 0u);
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.cache_misses, 0u);

  // Probabilistic scoring reads df the same way (no cursor at all).
  ProbabilisticScoreModel prob(index.scoring_stats());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    (void)prob.LeafScore(index, t, 0);
  }
  EXPECT_EQ(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.cache_hits + counters.cache_misses, 0u);
}

TEST_F(ScoringFixture, DirectNodeScoreNeverDecodesPositions) {
  EvalCounters counters;
  TfIdfScoreModel model(&index, index.scoring_stats(),
                        {"topic0", "topic1", "w3"}, &counters);
  double total = 0;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    total += model.DirectNodeScore(n);
  }
  EXPECT_GT(total, 0.0);
  // The reference computation seeks entry headers (occurs == pos_count),
  // so blocks decode — but position payloads never do.
  EXPECT_GT(counters.blocks_decoded, 0u);
  EXPECT_EQ(counters.positions_decoded, 0u);
}

TEST_F(ScoringFixture, ScoringAddsNoDecodeWorkToEvaluation) {
  // Scored and unscored runs of the same BOOL query must decode the exact
  // same blocks/entries: the scoring side reads only headers (pos_count)
  // and precomputed statistics, in both cursor modes.
  auto parsed = ParseQuery("'topic0' AND ('topic1' OR NOT 'w2')",
                           SurfaceLanguage::kBool);
  ASSERT_TRUE(parsed.ok());
  for (CursorMode mode : {CursorMode::kSequential, CursorMode::kSeek,
                          CursorMode::kAdaptive}) {
    BoolEngine plain(&index, ScoringKind::kNone, mode);
    BoolEngine tfidf(&index, ScoringKind::kTfIdf, mode);
    BoolEngine prob(&index, ScoringKind::kProbabilistic, mode);
    auto a = plain.Evaluate(*parsed);
    auto b = tfidf.Evaluate(*parsed);
    auto c = prob.Evaluate(*parsed);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a->counters.blocks_decoded, b->counters.blocks_decoded);
    EXPECT_EQ(a->counters.entries_decoded, b->counters.entries_decoded);
    EXPECT_EQ(a->counters.blocks_decoded, c->counters.blocks_decoded);
    EXPECT_EQ(a->counters.entries_decoded, c->counters.entries_decoded);
    // The per-query decoded-block cache sees identical traffic too: the
    // scoring side never loads a block the unscored run would not.
    EXPECT_EQ(a->counters.cache_hits, b->counters.cache_hits);
    EXPECT_EQ(a->counters.cache_misses, b->counters.cache_misses);
    EXPECT_EQ(a->counters.cache_hits, c->counters.cache_hits);
    EXPECT_EQ(a->counters.cache_misses, c->counters.cache_misses);
    EXPECT_EQ(a->counters.blocks_bulk_decoded, b->counters.blocks_bulk_decoded);
    // BOOL evaluation is node-level: no PosList is ever decoded, scored or
    // not.
    EXPECT_EQ(a->counters.positions_decoded, 0u);
    EXPECT_EQ(b->counters.positions_decoded, 0u);
    EXPECT_EQ(c->counters.positions_decoded, 0u);
  }
}

}  // namespace
}  // namespace fts

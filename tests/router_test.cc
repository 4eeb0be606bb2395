// Query routing through the Searcher: each language class lands on its
// engine, plus the adaptive access-mode planner the default engines use.

#include <gtest/gtest.h>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "text/corpus.h"

namespace fts {
namespace {

/// Evaluates `query` under a fresh per-call context.
StatusOr<RoutedResult> SearchOnce(const Searcher& searcher, std::string_view query) {
  ExecContext ctx;
  return searcher.Search(query, ctx);
}

struct RouterFixture : public ::testing::Test {
  void SetUp() override {
    corpus.AddDocument("alpha beta gamma delta");           // 0
    corpus.AddDocument("beta x x x x x x x x alpha");       // 1
    corpus.AddDocument("gamma epsilon");                    // 2
    corpus.AddDocument("");                                 // 3
    index = IndexBuilder::Build(corpus);
    router = std::make_unique<Searcher>(IndexSnapshot::ForIndex(&index));
  }

  Corpus corpus;
  InvertedIndex index;
  std::unique_ptr<Searcher> router;
};

TEST_F(RouterFixture, RoutesBoolQueriesToBoolEngine) {
  auto r = SearchOnce(*router, "'alpha' AND 'beta'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->engine, "BOOL");
  EXPECT_EQ(r->language_class, LanguageClass::kBoolNoNeg);
  EXPECT_EQ(r->result.nodes, (std::vector<NodeId>{0, 1}));
}

TEST_F(RouterFixture, RoutesComplementsToBoolEngine) {
  auto r = SearchOnce(*router, "NOT 'alpha'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine, "BOOL");
  EXPECT_EQ(r->language_class, LanguageClass::kBool);
  EXPECT_EQ(r->result.nodes, (std::vector<NodeId>{2, 3}));
}

TEST_F(RouterFixture, RoutesPositivePredicatesToPpred) {
  auto r = SearchOnce(
      *router, "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND distance(p, q, 1))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine, "PPRED");
  EXPECT_EQ(r->result.nodes, (std::vector<NodeId>{0}));
}

TEST_F(RouterFixture, RoutesNegativePredicatesToNpred) {
  auto r = SearchOnce(*router,
                      "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND "
                      "not_distance(p, q, 1))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine, "NPRED");
  EXPECT_EQ(r->result.nodes, (std::vector<NodeId>{1}));
}

TEST_F(RouterFixture, RoutesUniversalQuantifiersToComp) {
  auto r = SearchOnce(*router, "EVERY p (p HAS 'gamma' OR p HAS 'epsilon')");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine, "COMP");
  // Node 2 entirely gamma/epsilon; the empty node 3 vacuously satisfies.
  EXPECT_EQ(r->result.nodes, (std::vector<NodeId>{2, 3}));
}

TEST_F(RouterFixture, AllEnginesAgreeOnSharedQueries) {
  const char* queries[] = {
      "'alpha'",
      "'alpha' AND NOT 'gamma'",
      "'alpha' OR 'epsilon'",
      "dist('alpha', 'beta', 10)",
  };
  for (const char* q : queries) {
    auto parsed = ParseQuery(q, SurfaceLanguage::kComp);
    ASSERT_TRUE(parsed.ok());
    ExecContext ctx;
    auto routed = router->SearchParsed(*parsed, ctx);
    ASSERT_TRUE(routed.ok()) << q;
    auto comp = CompEngine(&index, ScoringKind::kNone).Evaluate(*parsed);
    ASSERT_TRUE(comp.ok()) << q;
    EXPECT_EQ(routed->result.nodes, comp->nodes) << q;
  }
}

TEST_F(RouterFixture, ParseErrorsPropagate) {
  auto r = SearchOnce(*router, "'alpha' AND");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RouterFixture, ScoredRouterProducesScores) {
  const Searcher scored(IndexSnapshot::ForIndex(&index), {ScoringKind::kTfIdf});
  auto r = SearchOnce(scored, "'alpha' AND 'beta'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.scores.size(), r->result.nodes.size());
  for (double s : r->result.scores) EXPECT_GT(s, 0.0);
}

TEST_F(RouterFixture, CountersReportEngineWork) {
  auto r = SearchOnce(*router, "'alpha' AND 'beta'");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->result.counters.entries_scanned, 0u);
}

// ---------------------------------------------------------------------------
// The adaptive access-mode planner (PlanFromDfs): the heuristic the Searcher's
// default CursorMode::kAdaptive engines consult per query/operator.
// ---------------------------------------------------------------------------

TEST(PlannerHeuristicTest, SelectiveDriverPlansSeek) {
  // Driver far below the threshold: 10 * 16 = 160 <= 5000.
  const uint64_t dfs[] = {10, 5000};
  EXPECT_EQ(PlanFromDfs(dfs), CursorMode::kSeek);
}

TEST(PlannerHeuristicTest, BalancedListsPlanSequential) {
  // 3000 * 16 > 3000: equally dense lists merge sequentially.
  const uint64_t dfs[] = {3000, 3000};
  EXPECT_EQ(PlanFromDfs(dfs), CursorMode::kSequential);
}

TEST(PlannerHeuristicTest, JustBelowAndAboveTheThreshold) {
  AdaptivePlannerOptions opts;
  opts.selectivity_threshold = 16.0;
  {
    const uint64_t dfs[] = {10, 161};  // 160 <= 161: seek
    EXPECT_EQ(PlanFromDfs(dfs, opts), CursorMode::kSeek);
  }
  {
    const uint64_t dfs[] = {10, 159};  // 160 > 159: sequential
    EXPECT_EQ(PlanFromDfs(dfs, opts), CursorMode::kSequential);
  }
}

TEST(PlannerHeuristicTest, TieChoosesSeek) {
  AdaptivePlannerOptions opts;
  opts.selectivity_threshold = 16.0;
  const uint64_t dfs[] = {10, 160};  // exactly min * threshold == others
  EXPECT_EQ(PlanFromDfs(dfs, opts), CursorMode::kSeek);
}

TEST(PlannerHeuristicTest, SingleListPlansSequential) {
  const uint64_t one[] = {12345};
  EXPECT_EQ(PlanFromDfs(one), CursorMode::kSequential);
  EXPECT_EQ(PlanFromDfs(std::span<const uint64_t>{}), CursorMode::kSequential);
}

TEST(PlannerHeuristicTest, EmptyListIsTheMostSelectiveDriver) {
  // An OOV / empty list (df 0) short-circuits a zig-zag before any decode,
  // so it must plan kSeek — falling back to a sequential merge would scan
  // the dense side in full just to intersect with nothing.
  const uint64_t oov_and_dense[] = {0, 5000};
  EXPECT_EQ(PlanFromDfs(oov_and_dense), CursorMode::kSeek);
  const uint64_t with_extra_empty[] = {0, 10, 5000};
  EXPECT_EQ(PlanFromDfs(with_extra_empty), CursorMode::kSeek);
}

TEST_F(RouterFixture, OovConjunctionUnderAdaptiveScansAlmostNothing) {
  // 'zzz' is OOV: the planner must zig-zag so the dense side is never
  // materialized. Forced sequential pays the full merge for comparison.
  BoolEngine adaptive(&index, ScoringKind::kNone, CursorMode::kAdaptive);
  auto a = adaptive.Evaluate(*ParseQuery("'zzz' AND 'beta'", SurfaceLanguage::kBool));
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->nodes.empty());
  // The zig-zag touches at most the dense side's first entry before the
  // empty driver exhausts it.
  EXPECT_LE(a->counters.entries_scanned, 1u);
  BoolEngine seq(&index, ScoringKind::kNone, CursorMode::kSequential);
  auto s = seq.Evaluate(*ParseQuery("'zzz' AND 'beta'", SurfaceLanguage::kBool));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->nodes.empty());
  EXPECT_EQ(s->counters.entries_scanned, index.df(index.LookupToken("beta")));
}

TEST(PlannerHeuristicTest, ThresholdIsTunable) {
  AdaptivePlannerOptions loose;
  loose.selectivity_threshold = 1.0;
  AdaptivePlannerOptions strict;
  strict.selectivity_threshold = 1000.0;
  const uint64_t dfs[] = {100, 500};
  EXPECT_EQ(PlanFromDfs(dfs, loose), CursorMode::kSeek);
  EXPECT_EQ(PlanFromDfs(dfs, strict), CursorMode::kSequential);
}

// Forced modes bypass the planner: on a workload where the planner would
// pick the opposite mode, a forced engine keeps its access pattern. The
// observable is skip_checks — only seeking probes skip headers.
struct PlannerBypassFixture : public ::testing::Test {
  void SetUp() override {
    // "rare" in 2 docs, "dense" in all 60: the planner would pick seek
    // (2 * 16 = 32 <= 60), so forced modes must visibly ignore it.
    for (int d = 0; d < 60; ++d) {
      std::string text = "dense filler";
      if (d == 17 || d == 41) text += " rare";
      corpus.AddDocument(text);
    }
    index = IndexBuilder::Build(corpus);
  }
  Corpus corpus;
  InvertedIndex index;
};

TEST_F(PlannerBypassFixture, ForcedSequentialNeverSeeks) {
  BoolEngine engine(&index, ScoringKind::kNone, CursorMode::kSequential);
  auto r = engine.Evaluate(*ParseQuery("'rare' AND 'dense'", SurfaceLanguage::kBool));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->counters.skip_checks, 0u);
  // The sequential merge scans both lists end to end.
  EXPECT_EQ(r->counters.entries_scanned, 62u);
}

TEST_F(PlannerBypassFixture, ForcedSeekAlwaysSeeks) {
  BoolEngine engine(&index, ScoringKind::kNone, CursorMode::kSeek);
  auto r = engine.Evaluate(*ParseQuery("'rare' AND 'dense'", SurfaceLanguage::kBool));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->counters.skip_checks, 0u);
}

TEST_F(PlannerBypassFixture, AdaptiveFollowsThePlannerPerOperator) {
  // 2 * 16 = 32 <= 60: the planner picks seek for this AND.
  BoolEngine adaptive(&index, ScoringKind::kNone, CursorMode::kAdaptive);
  auto r = adaptive.Evaluate(*ParseQuery("'rare' AND 'dense'", SurfaceLanguage::kBool));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->counters.skip_checks, 0u);
  // Balanced sides: the planner declines to seek.
  auto s = adaptive.Evaluate(*ParseQuery("'dense' AND 'filler'", SurfaceLanguage::kBool));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->counters.skip_checks, 0u);
  // All three runs agree on results with the forced modes.
  BoolEngine seq(&index, ScoringKind::kNone, CursorMode::kSequential);
  auto q = seq.Evaluate(*ParseQuery("'rare' AND 'dense'", SurfaceLanguage::kBool));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(r->nodes, q->nodes);
}

TEST_F(PlannerBypassFixture, CacheEngagesOnlyForRepeatedLists) {
  BoolEngine engine(&index, ScoringKind::kNone, CursorMode::kSequential);
  // Distinct tokens: no list is read twice, so the decoded-block cache is
  // bypassed entirely — zero hits AND zero misses.
  auto single = engine.Evaluate(
      *ParseQuery("'rare' AND 'dense'", SurfaceLanguage::kBool));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->counters.cache_hits + single->counters.cache_misses, 0u);
  // 'dense' appears twice: the second scan serves its blocks from cache.
  auto repeated = engine.Evaluate(
      *ParseQuery("'dense' AND ('dense' OR 'filler')", SurfaceLanguage::kBool));
  ASSERT_TRUE(repeated.ok());
  EXPECT_GT(repeated->counters.cache_hits, 0u);
}

TEST_F(PlannerBypassFixture, SearcherDefaultIsAdaptive) {
  const Searcher adaptive_router(IndexSnapshot::ForIndex(&index));
  auto r = SearchOnce(adaptive_router, "'rare' AND 'dense'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->engine, "BOOL");
  // The selective AND runs as a zig-zag seek under the default planner.
  EXPECT_GT(r->result.counters.skip_checks, 0u);
  // Forced sequential remains available for paper-faithful access counts.
  const Searcher paper(IndexSnapshot::ForIndex(&index),
                       {ScoringKind::kNone, CursorMode::kSequential});
  auto p = SearchOnce(paper, "'rare' AND 'dense'");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->result.counters.skip_checks, 0u);
  EXPECT_EQ(p->result.nodes, r->result.nodes);
}

}  // namespace
}  // namespace fts

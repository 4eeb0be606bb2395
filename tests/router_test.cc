// Query routing through the Searcher: each language class lands on its
// engine, plus the adaptive access-mode planner the default engines use.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/planner.h"
#include "eval/searcher.h"
#include "exec/admission.h"
#include "index/index_builder.h"
#include "index/tombstone_set.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

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
// The adaptive access-mode planner (PlanFromDfs, eval/planner.h): the rule
// the Searcher's default CursorMode::kAdaptive engines consult per
// query/operator.
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
  {
    const uint64_t dfs[] = {10, 161};  // 160 <= 161: seek
    EXPECT_EQ(PlanFromDfs(dfs), CursorMode::kSeek);
  }
  {
    const uint64_t dfs[] = {10, 159};  // 160 > 159: sequential
    EXPECT_EQ(PlanFromDfs(dfs), CursorMode::kSequential);
  }
}

TEST(PlannerHeuristicTest, TieChoosesSeek) {
  const uint64_t dfs[] = {10, 160};  // exactly min * 16 == others
  EXPECT_EQ(PlanFromDfs(dfs), CursorMode::kSeek);
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

// ---------------------------------------------------------------------------
// Planner boundary cases: each cost comparison at its tie and one step
// either side, and the early-outs that bypass it.
// ---------------------------------------------------------------------------

TEST(PlannerBoundaryTest, BlockMaxAtTheThreshold) {
  // No ranking requested: always full evaluation.
  EXPECT_FALSE(PlanBlockMax(0, 1000));
  EXPECT_FALSE(PlanBlockMax(0, 0));
  // k * 16 == candidates: the tie chooses block-max.
  EXPECT_TRUE(PlanBlockMax(10, 160));
  EXPECT_TRUE(PlanBlockMax(1, 16));
  // One candidate fewer: full evaluation.
  EXPECT_FALSE(PlanBlockMax(10, 159));
  EXPECT_FALSE(PlanBlockMax(1, 15));
}

/// Pair-indexed corpus of `n` copies of `doc` plus one "gamma" document.
/// With frequent_terms = 2, alpha and beta are the frequent terms; gamma
/// never co-occurs with either, so (alpha, gamma) is an eligible pair with
/// no list.
InvertedIndex PairCorpus(const std::string& doc, int n) {
  Corpus corpus;
  for (int i = 0; i < n; ++i) corpus.AddDocument(doc);
  corpus.AddDocument("gamma");
  return IndexBuilder::Build(corpus,
                             {.pairs = {.frequent_terms = 2, .max_distance = 5}});
}

/// Runs `query` on a PPRED engine and returns its counters.
EvalCounters PpredCounters(const InvertedIndex& index, std::string_view query,
                           CursorMode mode, PairRouting routing,
                           std::vector<NodeId>* nodes = nullptr) {
  PpredEngine engine(&index, ScoringKind::kNone, mode, routing);
  auto r = engine.Evaluate(*ParseQuery(query, SurfaceLanguage::kComp));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  if (nodes != nullptr) *nodes = r->nodes;
  return r->counters;
}

TEST(PlannerBoundaryTest, PairCostTieRoutesToThePairList) {
  // Each "alpha alpha beta beta" entry costs the pair plan 1 tf header + 4
  // records = 5 and the pipeline 1 + 2 + 2 positions = 5: an exact tie.
  const InvertedIndex index = PairCorpus("alpha alpha beta beta", 40);
  std::vector<NodeId> routed, pipeline;
  EXPECT_EQ(PpredCounters(index, "dist('alpha', 'beta', 5)",
                          CursorMode::kAdaptive, PairRouting::kAuto, &routed)
                .pair_seeks,
            1u);
  EXPECT_EQ(PpredCounters(index, "dist('alpha', 'beta', 5)",
                          CursorMode::kAdaptive, PairRouting::kOff, &pipeline)
                .pair_seeks,
            0u);
  EXPECT_EQ(routed, pipeline);
  EXPECT_EQ(routed.size(), 40u);
}

TEST(PlannerBoundaryTest, PairCostLossStaysOnThePipeline) {
  // 1 + 9 records = 10 per entry against 1 + 3 + 3 = 7: the pipeline wins
  // under kAuto; kForce routes regardless.
  const InvertedIndex index = PairCorpus("alpha alpha alpha beta beta beta", 40);
  EXPECT_EQ(PpredCounters(index, "dist('alpha', 'beta', 5)",
                          CursorMode::kAdaptive, PairRouting::kAuto)
                .pair_seeks,
            0u);
  EXPECT_EQ(PpredCounters(index, "dist('alpha', 'beta', 5)",
                          CursorMode::kAdaptive, PairRouting::kForce)
                .pair_seeks,
            1u);
}

TEST(PlannerBoundaryTest, AutoRoutingOnlyUnderAdaptive) {
  const InvertedIndex index = PairCorpus("alpha alpha beta beta", 40);
  for (CursorMode mode : {CursorMode::kSeek, CursorMode::kSequential}) {
    EXPECT_EQ(PpredCounters(index, "dist('alpha', 'beta', 5)", mode,
                            PairRouting::kAuto)
                  .pair_seeks,
              0u)
        << CursorModeToString(mode);
    // Even a provably empty pair stays on the pipeline.
    EXPECT_EQ(PpredCounters(index, "dist('alpha', 'gamma', 5)", mode,
                            PairRouting::kAuto)
                  .pair_seeks,
              0u)
        << CursorModeToString(mode);
  }
}

TEST(PlannerBoundaryTest, OutOfVocabularySideStaysOnThePipeline) {
  const InvertedIndex index = PairCorpus("alpha alpha beta beta", 40);
  for (PairRouting routing : {PairRouting::kAuto, PairRouting::kForce}) {
    std::vector<NodeId> nodes;
    const EvalCounters c =
        PpredCounters(index, "dist('alpha', 'zzz', 5)", CursorMode::kAdaptive,
                      routing, &nodes);
    EXPECT_EQ(c.pair_seeks, 0u) << PairRoutingToString(routing);
    EXPECT_TRUE(nodes.empty());
  }
}

TEST(PlannerBoundaryTest, AbsentKeyRoutesAsProvablyEmpty) {
  const InvertedIndex index = PairCorpus("alpha alpha beta beta", 40);
  std::vector<NodeId> nodes;
  const EvalCounters c =
      PpredCounters(index, "dist('alpha', 'gamma', 5)", CursorMode::kAdaptive,
                    PairRouting::kAuto, &nodes);
  EXPECT_EQ(c.pair_seeks, 1u);
  EXPECT_EQ(c.pair_entries_decoded, 0u);
  EXPECT_EQ(c.entries_scanned, 0u);
  EXPECT_EQ(c.blocks_decoded, 0u);
  EXPECT_TRUE(nodes.empty());
}

/// A pair-indexed segment (frequent terms alpha and beta) of `n` copies of
/// each `docs` entry, in order.
std::shared_ptr<const InvertedIndex> PairSegment(
    const std::vector<std::pair<std::string, int>>& docs) {
  Corpus corpus;
  for (const auto& [doc, n] : docs) {
    for (int i = 0; i < n; ++i) corpus.AddDocument(doc);
  }
  return std::make_shared<const InvertedIndex>(IndexBuilder::Build(
      corpus, {.pairs = {.frequent_terms = 2, .max_distance = 5}}));
}

/// pair_seeks of one kAuto evaluation of `query` over `snapshot`.
uint64_t AutoPairSeeks(std::shared_ptr<const IndexSnapshot> snapshot,
                       ScoringKind scoring, std::string_view query) {
  const Searcher searcher(std::move(snapshot),
                          {scoring, CursorMode::kAdaptive, PairRouting::kAuto});
  auto r = SearchOnce(searcher, query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->result.counters.pair_seeks : 0;
}

TEST(PlannerBoundaryTest, PairCostReadsOnlyTheSegmentsOwnLists) {
  // Segment 0 routes on its own lists: 40 entries * (1 + 4) records = 200
  // against min(80, 80) * (1 + 1.5 + 1.5) = 320. Its far-apart copies add
  // token dfs but no pair df, so the snapshot-wide pair/token df ratio is
  // higher than its own; priced with snapshot dfs (217 * 5 = 1085 against
  // 257 * 4 = 1028) it would keep the pipeline. Segments 1 and 2 route
  // either way, under tombstones.
  const std::vector<std::shared_ptr<const InvertedIndex>> segments = {
      PairSegment({{"alpha alpha beta beta", 40},
                   {"alpha x x x x x x x beta", 40}}),
      PairSegment({{"alpha alpha beta beta", 200}}),
      PairSegment({{"alpha beta", 30}}),
  };
  auto dead1 = std::make_shared<TombstoneSet>(segments[1]->num_nodes());
  for (NodeId n = 0; n < 50; ++n) dead1->MarkDeleted(n);
  auto dead2 = std::make_shared<TombstoneSet>(segments[2]->num_nodes());
  for (NodeId n = 0; n < 3; ++n) dead2->MarkDeleted(n);
  auto snapshot = IndexSnapshot::Create(segments, {nullptr, dead1, dead2});
  ASSERT_TRUE(snapshot.ok());

  // The cross-shard table a router would push: every segment's live dfs.
  std::unordered_map<std::string, uint32_t> df_by_text;
  for (const SegmentView& seg : (*snapshot)->segments()) {
    ASSERT_TRUE(AddLiveDfByText(*seg.index, seg.tombstones, &df_by_text).ok());
  }

  for (const char* query : {"dist('alpha', 'beta', 5)",
                            "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' "
                            "AND odistance(p, q, 0))"}) {
    SCOPED_TRACE(query);
    std::vector<uint64_t> own;
    for (const auto& segment : segments) {
      own.push_back(AutoPairSeeks(IndexSnapshot::ForIndex(segment.get()),
                                  ScoringKind::kNone, query));
    }
    EXPECT_EQ(own, (std::vector<uint64_t>{1, 1, 1}));
    for (const ScoringKind scoring : {ScoringKind::kNone, ScoringKind::kTfIdf}) {
      SCOPED_TRACE(ScoringKindToString(scoring));
      // Each segment contributes at most one pair seek, so the snapshot's
      // total equals the sum of the segments' own decisions only if every
      // segment decides as it does alone.
      EXPECT_EQ(AutoPairSeeks(*snapshot, scoring, query),
                own[0] + own[1] + own[2]);
      for (size_t i = 0; i < segments.size(); ++i) {
        auto shard = IndexSnapshot::CreateSharded(
            segments[i], (*snapshot)->live_nodes(), df_by_text);
        ASSERT_TRUE(shard.ok());
        EXPECT_EQ(AutoPairSeeks(*shard, scoring, query), own[i])
            << "shard " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-query decision table: on one seeded, pair-indexed corpus, the
// kAdaptive counters that reveal each planner decision (seek vs
// sequential: skip_checks; pair list vs pipeline: pair_seeks; block-max vs
// full: blocks_skipped_by_score and the decode counts) and the admission
// price. Every decision takes both outcomes somewhere in the table.
// ---------------------------------------------------------------------------

struct DecisionRow {
  const char* query;
  ScoringKind scoring;
  size_t top_k;
  uint64_t skip_checks;
  uint64_t pair_seeks;
  uint64_t blocks_skipped_by_score;
  uint64_t blocks_decoded;
  uint64_t entries_scanned;
  uint64_t admission_cost;
};

constexpr ScoringKind kNoScore = ScoringKind::kNone;
constexpr ScoringKind kTfIdf = ScoringKind::kTfIdf;
constexpr ScoringKind kProb = ScoringKind::kProbabilistic;

// clang-format off
const DecisionRow kDecisionTable[] = {
  // Columns: query, scoring, top_k, then the expected skip_checks,
  // pair_seeks, blocks_skipped_by_score, blocks_decoded, entries_scanned
  // and admission cost.
  // BOOL AND: rare ∧ dense seeks, dense ∧ dense merges, an OOV side seeks
  // and stops at once; AND over an evaluated set and AND NOT.
  {"'w300' AND 'topic0'", kNoScore, 0, 72, 0, 0, 6, 70, 28},
  {"'topic0' AND 'topic1'", kNoScore, 0, 0, 0, 0, 10, 1215, 1215},
  {"'w0' AND 'w1'", kNoScore, 0, 0, 0, 0, 24, 2918, 2918},
  {"'zzz' AND 'topic0'", kNoScore, 0, 0, 0, 0, 1, 1, 0},
  {"('w300' OR 'w301') AND 'topic0'", kNoScore, 0, 0, 0, 0, 7, 666, 28},
  {"'topic0' AND NOT 'w300'", kNoScore, 0, 0, 0, 0, 6, 633, 28},
  // PPRED phrase / NEAR: routed to the pair list; not routed on cost,
  // beyond the built window, or with an OOV side; rare ∧ dense seeks.
  {"dist('w0', 'w1', 0)", kNoScore, 0, 0, 1, 0, 11, 1356, 5836},
  {"dist('w0', 'w2', 3)", kTfIdf, 0, 0, 1, 0, 10, 1204, 5602},
  {"dist('topic0', 'topic1', 2)", kNoScore, 0, 0, 0, 0, 10, 1215, 2430},
  {"dist('w0', 'w1', 7)", kNoScore, 0, 0, 0, 0, 24, 2918, 5836},
  {"dist('w0', 'zzz', 1)", kNoScore, 0, 0, 0, 0, 1, 1, 0},
  {"dist('w300', 'topic0', 3)", kNoScore, 0, 72, 0, 0, 6, 70, 56},
  // NPRED: the second ordering seeks on the first one's observed
  // cardinality (static dfs alone would merge topic0 ∧ topic1).
  {"SOME p SOME q (p HAS 'w300' AND q HAS 'topic0' AND not_distance(p, q, 2))", kNoScore, 0, 144, 0, 0, 6, 140, 112},
  {"SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND not_ordered(p, q))", kProb, 0, 1053, 0, 0, 10, 2177, 4860},
  // Ranked top-k: block-max when k * 16 <= candidates (k = 1, 10), full
  // evaluation at k = 1000; TF-IDF bounds skip nothing here.
  {"'topic0' OR 'topic1'", kTfIdf, 1, 2224, 0, 0, 10, 973, 1215},
  {"'topic0' OR 'topic1'", kTfIdf, 10, 2299, 0, 0, 10, 998, 1215},
  {"'topic0' OR 'topic1'", kTfIdf, 1000, 0, 0, 0, 10, 1215, 1215},
  {"'topic0' OR 'w5'", kProb, 1, 1370, 0, 5, 9, 516, 1643},
  {"'topic0' OR 'w5'", kProb, 10, 3518, 0, 0, 14, 1311, 1643},
  {"'topic0' OR 'w5'", kProb, 1000, 0, 0, 0, 14, 1643, 1643},
  {"'w300' AND 'topic0'", kProb, 10, 72, 0, 0, 6, 70, 28},
};
// clang-format on

TEST(PlannerDecisionTableTest, CountersAndAdmissionCostPerQuery) {
  CorpusGenOptions gen;
  gen.seed = 7;
  gen.num_nodes = 1500;
  gen.min_doc_len = 20;
  gen.max_doc_len = 80;
  gen.vocabulary = 400;
  gen.num_topic_tokens = 2;
  gen.topic_doc_fraction = 0.4;
  gen.topic_occurrences = 3;
  const InvertedIndex index = IndexBuilder::Build(
      GenerateCorpus(gen), {.pairs = {.frequent_terms = 6, .max_distance = 5}});
  const auto snapshot = IndexSnapshot::ForIndex(&index);
  const AdmissionController admission({});

  std::string actual_table;
  bool all_match = true;
  for (const DecisionRow& row : kDecisionTable) {
    const Searcher searcher(snapshot, {row.scoring, CursorMode::kAdaptive,
                                       PairRouting::kAuto});
    ExecContext ctx;
    ctx.set_top_k(row.top_k);
    auto r = searcher.Search(row.query, ctx);
    ASSERT_TRUE(r.ok()) << row.query << ": " << r.status().ToString();
    auto priced = admission.Assess(row.query, *snapshot, 0, 0);
    ASSERT_TRUE(priced.ok()) << row.query;
    const EvalCounters& c = r->result.counters;
    const DecisionRow got{row.query,
                          row.scoring,
                          row.top_k,
                          c.skip_checks,
                          c.pair_seeks,
                          c.blocks_skipped_by_score,
                          c.blocks_decoded,
                          c.entries_scanned,
                          priced->cost};
    const bool match = got.skip_checks == row.skip_checks &&
                       got.pair_seeks == row.pair_seeks &&
                       got.blocks_skipped_by_score ==
                           row.blocks_skipped_by_score &&
                       got.blocks_decoded == row.blocks_decoded &&
                       got.entries_scanned == row.entries_scanned &&
                       got.admission_cost == row.admission_cost;
    EXPECT_TRUE(match) << row.query << " (" << ScoringKindToString(row.scoring)
                       << ", k=" << row.top_k << ")";
    all_match = all_match && match;
    char line[512];
    std::snprintf(line, sizeof line,
                  "  {\"%s\", %s, %zu, %llu, %llu, %llu, %llu, %llu, %llu},\n",
                  row.query,
                  row.scoring == kNoScore  ? "kNoScore"
                  : row.scoring == kTfIdf ? "kTfIdf"
                                          : "kProb",
                  row.top_k, static_cast<unsigned long long>(got.skip_checks),
                  static_cast<unsigned long long>(got.pair_seeks),
                  static_cast<unsigned long long>(got.blocks_skipped_by_score),
                  static_cast<unsigned long long>(got.blocks_decoded),
                  static_cast<unsigned long long>(got.entries_scanned),
                  static_cast<unsigned long long>(got.admission_cost));
    actual_table += line;
  }
  EXPECT_TRUE(all_match) << "actual table:\n" << actual_table;
}

}  // namespace
}  // namespace fts

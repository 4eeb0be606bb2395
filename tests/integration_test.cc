// End-to-end integration: generated corpus -> index -> serialize/reload ->
// route queries from every language class through every applicable engine,
// with scoring — the full pipeline a downstream application would run.

#include <gtest/gtest.h>

#include "eval/searcher.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "scoring/topk.h"
#include "workload/corpus_gen.h"
#include "workload/query_gen.h"

namespace fts {
namespace {

struct IntegrationFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    CorpusGenOptions opts;
    opts.seed = 99;
    opts.num_nodes = 400;
    opts.min_doc_len = 40;
    opts.max_doc_len = 160;
    opts.vocabulary = 2000;
    opts.num_topic_tokens = 6;
    opts.topic_doc_fraction = 0.4;
    opts.topic_occurrences = 6;
    corpus_ = new Corpus(GenerateCorpus(opts));
    index_ = new InvertedIndex(IndexBuilder::Build(*corpus_));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete corpus_;
    index_ = nullptr;
    corpus_ = nullptr;
  }

  static Corpus* corpus_;
  static InvertedIndex* index_;
};

Corpus* IntegrationFixture::corpus_ = nullptr;
InvertedIndex* IntegrationFixture::index_ = nullptr;

/// Evaluates `query` under a fresh per-call context.
StatusOr<RoutedResult> SearchOnce(const Searcher& searcher, std::string_view query) {
  ExecContext ctx;
  return searcher.Search(query, ctx);
}

TEST_F(IntegrationFixture, SerializedIndexAnswersIdentically) {
  std::string blob;
  SaveIndexToString(*index_, &blob);
  InvertedIndex reloaded;
  ASSERT_TRUE(LoadIndexFromString(blob, &reloaded).ok());

  const Searcher original(IndexSnapshot::ForIndex(index_));
  const Searcher loaded(IndexSnapshot::ForIndex(&reloaded));
  for (const char* q :
       {"'topic0' AND 'topic1'", "NOT 'topic2'",
        "SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND distance(p, q, 30))",
        "SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND "
        "not_distance(p, q, 30))"}) {
    auto a = SearchOnce(original, q);
    auto b = SearchOnce(loaded, q);
    ASSERT_TRUE(a.ok()) << q;
    ASSERT_TRUE(b.ok()) << q;
    EXPECT_EQ(a->result.nodes, b->result.nodes) << q;
  }
}

TEST_F(IntegrationFixture, GeneratedWorkloadAgreesAcrossEngines) {
  const Searcher router(IndexSnapshot::ForIndex(index_));
  CompEngine comp(index_, ScoringKind::kNone);
  for (uint32_t toks = 2; toks <= 3; ++toks) {
    for (uint32_t preds = 0; preds <= 2; ++preds) {
      for (QueryPolarity pol :
           {QueryPolarity::kNone, QueryPolarity::kPositive, QueryPolarity::kNegative}) {
        QueryGenOptions opts;
        opts.num_tokens = toks;
        opts.num_predicates = preds;
        opts.polarity = pol;
        opts.distance = 40;
        const std::string q = GenerateQuery(opts);
        auto routed = SearchOnce(router, q);
        ASSERT_TRUE(routed.ok()) << q << ": " << routed.status().ToString();
        auto parsed = ParseQuery(q, SurfaceLanguage::kComp);
        ASSERT_TRUE(parsed.ok());
        auto reference = comp.Evaluate(*parsed);
        ASSERT_TRUE(reference.ok()) << q;
        EXPECT_EQ(routed->result.nodes, reference->nodes)
            << q << " routed to " << routed->engine;
      }
    }
  }
}

TEST_F(IntegrationFixture, RoutingPicksTheCheapClasses) {
  const Searcher router(IndexSnapshot::ForIndex(index_));
  auto cls = [&](const std::string& q) {
    auto r = SearchOnce(router, q);
    EXPECT_TRUE(r.ok()) << q;
    return r.ok() ? r->engine : std::string("?");
  };
  EXPECT_EQ(cls("'topic0' AND 'topic1'"), "BOOL");
  EXPECT_EQ(cls("SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND "
                "distance(p, q, 20))"),
            "PPRED");
  EXPECT_EQ(cls("SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND "
                "not_distance(p, q, 20))"),
            "NPRED");
  EXPECT_EQ(cls("EVERY p (NOT p HAS 'topic0') OR 'topic1'"), "COMP");
}

TEST_F(IntegrationFixture, ScoredSearchReturnsRankedTopK) {
  const Searcher router(IndexSnapshot::ForIndex(index_), {ScoringKind::kTfIdf});
  auto r = SearchOnce(router, "'topic0' OR 'topic1'");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->result.nodes.empty());
  auto top = TopK(r->result.nodes, r->result.scores, 10);
  ASSERT_LE(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  EXPECT_GT(top.front().score, 0.0);
}

TEST_F(IntegrationFixture, CounterHierarchyMatchesFigure3) {
  // On the same positive-predicate query, PPRED touches no more inverted
  // list data than COMP materializes, and BOOL (predicate-free variant)
  // does the least work.
  QueryGenOptions opts;
  opts.num_tokens = 3;
  opts.num_predicates = 2;
  opts.polarity = QueryPolarity::kPositive;
  opts.distance = 40;
  const std::string positive_q = GenerateQuery(opts);

  PpredEngine ppred(index_, ScoringKind::kNone);
  CompEngine comp(index_, ScoringKind::kNone);
  auto parsed = ParseQuery(positive_q, SurfaceLanguage::kComp);
  ASSERT_TRUE(parsed.ok());
  auto p = ppred.Evaluate(*parsed);
  auto c = comp.Evaluate(*parsed);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(p->nodes, c->nodes);
  EXPECT_EQ(p->counters.tuples_materialized, 0u);
  EXPECT_GT(c->counters.tuples_materialized, 0u);
  EXPECT_LE(p->counters.positions_scanned, c->counters.positions_scanned);
}

TEST_F(IntegrationFixture, EmptyAndImpossibleQueries) {
  const Searcher router(IndexSnapshot::ForIndex(index_));
  auto none = SearchOnce(router, "'nosuchtokenanywhere'");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->result.nodes.empty());

  auto contradiction = SearchOnce(router, "'topic0' AND NOT 'topic0'");
  ASSERT_TRUE(contradiction.ok());
  EXPECT_TRUE(contradiction->result.nodes.empty());

  auto everything = SearchOnce(router, "'topic0' OR NOT 'topic0'");
  ASSERT_TRUE(everything.ok());
  EXPECT_EQ(everything->result.nodes.size(), index_->num_nodes());
}

}  // namespace
}  // namespace fts

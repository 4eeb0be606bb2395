// Searcher ranked-retrieval (top-k) tests: the block-max early-termination
// path must be bit-identical to full-evaluation-then-TopK while actually
// skipping blocks; deadline and engine-name reporting contracts of the
// segment loop are pinned here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "eval/block_max.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "index/index_builder.h"
#include "index/index_snapshot.h"
#include "lang/ast.h"
#include "scoring/topk.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

/// A fig5-8-shaped corpus scaled for unit-test time: Zipf background
/// vocabulary (so common tokens have long lists with varying tf) plus
/// planted topic tokens (constant tf => whole lists of score ties).
InvertedIndex BuildRankedCorpusIndex() {
  CorpusGenOptions opts;
  opts.seed = 7;
  opts.num_nodes = 4000;
  opts.min_doc_len = 60;
  opts.max_doc_len = 60;  // uniform lengths keep TfIdf norms comparable
  opts.vocabulary = 800;
  opts.num_topic_tokens = 2;
  opts.topic_doc_fraction = 0.3;
  opts.topic_occurrences = 25;
  return IndexBuilder::Build(GenerateCorpus(opts));
}

const InvertedIndex& RankedIndex() {
  static const InvertedIndex index = BuildRankedCorpusIndex();
  return index;
}

/// Runs `query` both ways on `searcher` — full evaluation and a ranked
/// top-`k` request — and asserts the ranked result is exactly TopK over
/// the full result: same nodes, bit-identical scores, same rank order,
/// same reported engine. Returns blocks_skipped_by_score of the ranked run.
uint64_t ExpectRankedMatchesFull(const Searcher& searcher,
                                 const LangExprPtr& query, size_t k) {
  ExecContext full_ctx;
  auto full = searcher.SearchParsed(query, full_ctx);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return 0;
  EXPECT_EQ(full_ctx.counters().blocks_skipped_by_score, 0u)
      << "full evaluation must never score-skip";

  ExecContext ranked_ctx;
  ranked_ctx.set_top_k(k);
  auto ranked = searcher.SearchParsed(query, ranked_ctx);
  EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
  if (!ranked.ok()) return 0;

  std::vector<NodeId> expect_nodes;
  std::vector<double> expect_scores;
  for (const ScoredNode& s :
       TopK(full->result.nodes, full->result.scores, k)) {
    expect_nodes.push_back(s.node);
    expect_scores.push_back(s.score);
  }
  EXPECT_EQ(ranked->result.nodes, expect_nodes) << query->ToString();
  EXPECT_EQ(ranked->result.scores, expect_scores) << query->ToString();
  EXPECT_EQ(ranked->engine, full->engine) << query->ToString();
  return ranked_ctx.counters().blocks_skipped_by_score;
}

TEST(SearcherTopKTest, BlockMaxIsBitIdenticalToFullEvaluation) {
  const InvertedIndex& index = RankedIndex();
  const auto snapshot = IndexSnapshot::ForIndex(&index);
  const std::vector<LangExprPtr> queries = {
      LangExpr::Token(BackgroundToken(0)),
      LangExpr::Token(TopicToken(0)),
      LangExpr::And(LangExpr::Token(BackgroundToken(0)),
                    LangExpr::Token(BackgroundToken(1))),
      LangExpr::And(LangExpr::Token(TopicToken(0)),
                    LangExpr::Token(BackgroundToken(2))),
      LangExpr::Or(LangExpr::Token(BackgroundToken(3)),
                   LangExpr::Token(BackgroundToken(7))),
      LangExpr::Or(LangExpr::Token(TopicToken(0)),
                   LangExpr::Token(TopicToken(1))),
  };
  for (ScoringKind scoring :
       {ScoringKind::kTfIdf, ScoringKind::kProbabilistic}) {
    for (CursorMode mode : {CursorMode::kSeek, CursorMode::kAdaptive,
                            CursorMode::kSequential}) {
      Searcher searcher(snapshot, {scoring, mode});
      for (const LangExprPtr& q : queries) {
        const uint64_t skipped = ExpectRankedMatchesFull(searcher, q, 10);
        if (mode == CursorMode::kSequential) {
          EXPECT_EQ(skipped, 0u)
              << "paper-faithful sequential mode must not score-skip: "
              << q->ToString();
        }
      }
    }
  }
}

TEST(SearcherTopKTest, SelectiveQueriesSkipMostCandidateBlocks) {
  // The early-termination win itself: on a long scored list with a small
  // k, the majority of candidate blocks must be hopped without decoding.
  // Probabilistic scoring is the tight case (its per-block bound is exact
  // at max_tf); TfIdf bounds are looser (global min uniq*norm) but must
  // still skip on this uniform-length corpus.
  const InvertedIndex& index = RankedIndex();
  const auto snapshot = IndexSnapshot::ForIndex(&index);
  const LangExprPtr q = LangExpr::Token(BackgroundToken(0));
  const size_t candidate_blocks =
      index.block_list(index.LookupToken(BackgroundToken(0)))->num_blocks();
  ASSERT_GT(candidate_blocks, 4u);  // long enough list to be interesting

  Searcher prob(snapshot, {ScoringKind::kProbabilistic, CursorMode::kSeek});
  const uint64_t prob_skipped = ExpectRankedMatchesFull(prob, q, 10);
  EXPECT_GT(prob_skipped, candidate_blocks / 2)
      << "expected a majority of " << candidate_blocks << " blocks skipped";

  Searcher tfidf(snapshot, {ScoringKind::kTfIdf, CursorMode::kSeek});
  EXPECT_GT(ExpectRankedMatchesFull(tfidf, q, 10), 0u);

  // Whole-list score ties: with identical documents every entry of "tie"
  // scores the same, so the heap fills with the k smallest ids inside the
  // first block, every later block's (exact) bound equals the threshold,
  // and the id tie-break lets the evaluator hop all of them.
  Corpus tie_corpus;
  for (size_t i = 0; i < 2000; ++i) {
    tie_corpus.AddTokens({"tie", "tie", "tie", "pad", "pad", "pad", "pad"});
  }
  InvertedIndex tie_index = IndexBuilder::Build(tie_corpus);
  const size_t tie_blocks =
      tie_index.block_list(tie_index.LookupToken("tie"))->num_blocks();
  ASSERT_GT(tie_blocks, 4u);
  const auto tie_snapshot = IndexSnapshot::ForIndex(&tie_index);
  Searcher tie_searcher(tie_snapshot,
                        {ScoringKind::kProbabilistic, CursorMode::kSeek});
  const uint64_t tie_skipped =
      ExpectRankedMatchesFull(tie_searcher, LangExpr::Token("tie"), 10);
  EXPECT_GT(tie_skipped, tie_blocks / 2)
      << "expected a majority of " << tie_blocks << " tied blocks skipped";
}

TEST(SearcherTopKTest, UnscoredTopKTruncatesToSmallestIds) {
  // kNone + top_k: every candidate ties at score zero, so the k results
  // are the k smallest matching ids, ascending, with no scores attached.
  const InvertedIndex& index = RankedIndex();
  const auto snapshot = IndexSnapshot::ForIndex(&index);
  Searcher searcher(snapshot, {ScoringKind::kNone, CursorMode::kAdaptive});
  const LangExprPtr q = LangExpr::Token(TopicToken(0));
  ExecContext full_ctx;
  auto full = searcher.SearchParsed(q, full_ctx);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->result.nodes.size(), 10u);
  ExecContext ranked_ctx;
  ranked_ctx.set_top_k(10);
  auto ranked = searcher.SearchParsed(q, ranked_ctx);
  ASSERT_TRUE(ranked.ok());
  const std::vector<NodeId> expect(full->result.nodes.begin(),
                                   full->result.nodes.begin() + 10);
  EXPECT_EQ(ranked->result.nodes, expect);
  EXPECT_TRUE(ranked->result.scores.empty());
}

TEST(SearcherTopKTest, ExpiredDeadlineStopsBeforeAnySegmentWork) {
  // Regression: SearchParsed must check the deadline at the top of the
  // segment loop — an already-expired deadline on a multi-segment
  // snapshot returns DeadlineExceeded without decoding anything from any
  // segment.
  CorpusGenOptions opts;
  opts.num_nodes = 20;
  opts.min_doc_len = 10;
  opts.max_doc_len = 20;
  opts.vocabulary = 50;
  std::vector<std::shared_ptr<const InvertedIndex>> segments;
  for (uint32_t seed : {1u, 2u, 3u}) {
    opts.seed = seed;
    segments.push_back(
        std::make_shared<InvertedIndex>(IndexBuilder::Build(GenerateCorpus(opts))));
  }
  auto snapshot = IndexSnapshot::Create(segments, {}, 1);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ((*snapshot)->num_segments(), 3u);

  for (size_t top_k : {size_t{0}, size_t{10}}) {
    Searcher searcher(*snapshot, {ScoringKind::kTfIdf, CursorMode::kAdaptive});
    ExecContext ctx;
    ctx.set_deadline(Deadline::After(std::chrono::nanoseconds(0)));
    ctx.set_top_k(top_k);
    auto result =
        searcher.SearchParsed(LangExpr::Token(BackgroundToken(0)), ctx);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(ctx.counters().blocks_decoded, 0u);
    EXPECT_EQ(ctx.counters().entries_decoded, 0u);
  }
}

TEST(SearcherTopKTest, EmptySnapshotReportsNoEngine) {
  // Regression: a snapshot with zero segments runs nothing — the result
  // must say so ("NONE") instead of claiming the classified engine.
  auto snapshot = IndexSnapshot::Create({}, {}, 1);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ((*snapshot)->num_segments(), 0u);
  Searcher searcher(*snapshot, {ScoringKind::kTfIdf, CursorMode::kAdaptive});
  for (size_t top_k : {size_t{0}, size_t{5}}) {
    ExecContext ctx;
    ctx.set_top_k(top_k);
    auto result = searcher.SearchParsed(LangExpr::Token("anything"), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->result.nodes.empty());
    EXPECT_EQ(result->engine, "NONE");
  }
}

TEST(SearcherTopKTest, BlockMaxSupportsGatesTheLanguage) {
  EXPECT_TRUE(BlockMaxSupports(LangExpr::Token("a")));
  EXPECT_TRUE(BlockMaxSupports(
      LangExpr::And(LangExpr::Token("a"), LangExpr::Token("b"))));
  EXPECT_TRUE(BlockMaxSupports(
      LangExpr::Or(LangExpr::Token("a"),
                   LangExpr::And(LangExpr::Token("b"), LangExpr::Token("c")))));
  EXPECT_FALSE(BlockMaxSupports(LangExpr::Not(LangExpr::Token("a"))));
  EXPECT_FALSE(BlockMaxSupports(
      LangExpr::And(LangExpr::Token("a"),
                    LangExpr::Not(LangExpr::Token("b")))));
  EXPECT_FALSE(BlockMaxSupports(nullptr));
}

}  // namespace
}  // namespace fts

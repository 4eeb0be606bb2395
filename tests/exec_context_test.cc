// ExecContext tests: deadline semantics, the L1 attach policy, counter
// accumulation via MergeFrom, context reuse/reset, and deadline
// enforcement through every engine.

#include "exec/exec_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "eval/npred_engine.h"
#include "eval/ppred_engine.h"
#include "eval/searcher.h"
#include "index/index_builder.h"
#include "index/shared_block_cache.h"
#include "lang/parser.h"
#include "text/corpus.h"

namespace fts {
namespace {

InvertedIndex TestIndex() {
  Corpus corpus;
  corpus.AddDocument("a b c a b. c d e. a c e.\n\n f a b c.");
  corpus.AddDocument("b c d. e f a. b d f.");
  corpus.AddDocument("a a a b. c c d e f.");
  corpus.AddDocument("f e d c b a. a b.");
  return IndexBuilder::Build(corpus);
}

LangExprPtr Parse(const std::string& q) {
  auto parsed = ParseQuery(q, SurfaceLanguage::kComp);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

TEST(DeadlineTest, UnsetNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.set());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Check().ok());
}

TEST(DeadlineTest, PastDeadlineExpires) {
  Deadline d = Deadline::After(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(d.set());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, FutureDeadlineHolds) {
  Deadline d = Deadline::After(std::chrono::hours(1));
  EXPECT_TRUE(d.set());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.Check().ok());
}

TEST(ExecContextTest, DecodeCountersMergeAndPrint) {
  // The SIMD/bitset decode counters ride the same MergeFrom every service
  // total and segment merge uses, and appear in the printed summary.
  EvalCounters a, b;
  a.simd_groups_decoded = 3;
  a.bitset_blocks_intersected = 1;
  b.simd_groups_decoded = 4;
  b.bitset_blocks_intersected = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.simd_groups_decoded, 7u);
  EXPECT_EQ(a.bitset_blocks_intersected, 3u);
  const std::string s = a.ToString();
  EXPECT_NE(s.find("simd_groups=7"), std::string::npos) << s;
  EXPECT_NE(s.find("bitset_ands=3"), std::string::npos) << s;
}

TEST(ExecContextTest, CountersAccumulateAcrossQueries) {
  InvertedIndex index = TestIndex();
  BoolEngine engine(&index, ScoringKind::kNone, CursorMode::kSequential);
  ExecContext ctx;
  auto r1 = engine.Evaluate(Parse("'a' AND 'b'"), ctx);
  ASSERT_TRUE(r1.ok());
  const uint64_t after_one = ctx.counters().entries_scanned;
  EXPECT_EQ(after_one, r1->counters.entries_scanned);
  EXPECT_GT(after_one, 0u);

  auto r2 = engine.Evaluate(Parse("'a' AND 'b'"), ctx);
  ASSERT_TRUE(r2.ok());
  // The context is cumulative; each result still reports its own delta.
  EXPECT_EQ(ctx.counters().entries_scanned, 2 * after_one);
  EXPECT_EQ(r2->counters.entries_scanned, after_one);

  ctx.Reset();
  EXPECT_EQ(ctx.counters().entries_scanned, 0u);
}

TEST(ExecContextTest, SharedCacheAttachesForSingleScanQueries) {
  InvertedIndex index = TestIndex();
  BoolEngine engine(&index, ScoringKind::kNone, CursorMode::kSequential);
  // Single-scan query: without an L2 the auto policy skips caching...
  ExecContext plain;
  auto uncached = engine.Evaluate(Parse("'a'"), plain);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached->counters.cache_misses, 0u);

  // ...with an L2 it routes through the hierarchy so later queries (on any
  // context) reuse the decode.
  SharedBlockCache l2;
  ExecOptions options;
  options.shared_cache = &l2;
  ExecContext first(options);
  auto cold = engine.Evaluate(Parse("'a'"), first);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->counters.shared_cache_misses, 0u);

  ExecContext second(options);
  auto warm = engine.Evaluate(Parse("'a'"), second);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->counters.shared_cache_hits, 0u);
  EXPECT_EQ(warm->counters.blocks_decoded, 0u);
  EXPECT_EQ(warm->nodes, cold->nodes);
}

TEST(ExecContextTest, ExpiredDeadlineFailsEveryEngine) {
  InvertedIndex index = TestIndex();
  ExecOptions options;
  options.deadline = Deadline::After(std::chrono::nanoseconds(-1));

  BoolEngine bool_engine(&index, ScoringKind::kNone, CursorMode::kSequential);
  PpredEngine ppred(&index, ScoringKind::kNone, CursorMode::kSequential);
  NpredEngine npred(&index, ScoringKind::kNone);
  CompEngine comp(&index, ScoringKind::kNone);

  {
    ExecContext ctx(options);
    EXPECT_EQ(bool_engine.Evaluate(Parse("'a' AND 'b'"), ctx).status().code(),
              StatusCode::kDeadlineExceeded);
  }
  {
    ExecContext ctx(options);
    EXPECT_EQ(ppred
                  .Evaluate(Parse("SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' "
                                  "AND distance(p1, p2, 3))"),
                            ctx)
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded);
  }
  {
    ExecContext ctx(options);
    EXPECT_EQ(npred
                  .Evaluate(Parse("SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' "
                                  "AND NOT distance(p1, p2, 3))"),
                            ctx)
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded);
  }
  {
    ExecContext ctx(options);
    EXPECT_EQ(comp.Evaluate(Parse("EVERY p (p HAS 'a')"), ctx).status().code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST(ExecContextTest, GenerousDeadlineDoesNotPerturbResults) {
  InvertedIndex index = TestIndex();
  const Searcher searcher(IndexSnapshot::ForIndex(&index), {ScoringKind::kTfIdf});
  ExecContext unbounded_ctx;
  auto unbounded = searcher.Search("'a' AND ('b' OR 'c')", unbounded_ctx);
  ASSERT_TRUE(unbounded.ok());

  ExecContext ctx;
  ctx.set_deadline(Deadline::After(std::chrono::hours(1)));
  auto bounded = searcher.Search("'a' AND ('b' OR 'c')", ctx);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->result.nodes, unbounded->result.nodes);
  EXPECT_EQ(bounded->result.scores, unbounded->result.scores);
}

TEST(ExecContextTest, SharedCacheServesAcrossContexts) {
  InvertedIndex index = TestIndex();
  SharedBlockCache cache;
  ExecOptions options;
  options.shared_cache = &cache;
  const Searcher searcher(IndexSnapshot::ForIndex(&index));

  ExecContext first_ctx(options);
  auto first = searcher.Search("'a' AND 'b'", first_ctx);
  ASSERT_TRUE(first.ok());
  ExecContext second_ctx(options);
  auto second = searcher.Search("'a' AND 'b'", second_ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->result.counters.shared_cache_hits, 0u);
  EXPECT_EQ(second->result.counters.blocks_decoded, 0u);
  EXPECT_EQ(second->result.nodes, first->result.nodes);
  EXPECT_GT(first_ctx.counters().shared_cache_hits +
                second_ctx.counters().shared_cache_hits,
            0u);
}

}  // namespace
}  // namespace fts

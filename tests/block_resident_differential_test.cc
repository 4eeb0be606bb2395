// Differential proof of the single-resident-representation refactor and of
// the mmap-backed lazy-load storage mode: the
// block-compressed lists are the only form an InvertedIndex holds, so every
// engine (BOOL merges, pipelined PPRED/NPRED, materialized COMP) and every
// scoring model reads through BlockListCursor. This harness builds the raw
// PostingList oracle for the same seeded corpora (testing/raw_posting_oracle.h),
// attaches it to the identical engine code via set_raw_oracle_for_test, and
// asserts that node sets AND scores are bit-identical between the
// block-resident and raw-oracle evaluations — per query, per engine, per
// scoring model, in both cursor modes. A cursor-level stream differential
// (sequential and interleaved seek) covers the representations below the
// engines, and the naive calculus evaluator anchors the node sets to the
// paper's semantics.

#include <gtest/gtest.h>

#include <cstdio>

#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "eval/npred_engine.h"
#include "eval/ppred_engine.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "lang/translate.h"
#include "testing/random_workload.h"
#include "testing/raw_posting_oracle.h"
#include "text/corpus.h"

namespace fts {
namespace {

// Corpus and query generators are shared with the concurrency stress
// tests (testing/random_workload.h) so the single-threaded and N-thread
// harnesses evaluate identical workloads.
Corpus RandomCorpus(Rng* rng, int docs, int max_sentences) {
  return RandomWorkloadCorpus(rng, docs, max_sentences);
}

LangExprPtr RandomBool(Rng* rng, int depth) { return RandomBoolQuery(rng, depth); }

LangExprPtr RandomPipelined(Rng* rng, bool allow_negative) {
  return RandomPipelinedQuery(rng, allow_negative);
}

std::string Tok(Rng* rng) { return RandomWorkloadToken(rng); }

std::vector<NodeId> NaiveNodes(const Corpus& corpus, const LangExprPtr& query) {
  auto calc = TranslateToCalculus(query);
  EXPECT_TRUE(calc.ok()) << calc.status().ToString();
  NaiveCalculusEvaluator oracle(&corpus);
  auto nodes = oracle.Evaluate(*calc);
  EXPECT_TRUE(nodes.ok());
  return nodes.ok() ? *nodes : std::vector<NodeId>{};
}

constexpr ScoringKind kAllScoring[] = {ScoringKind::kNone, ScoringKind::kTfIdf,
                                       ScoringKind::kProbabilistic};

/// Round-trips `src` through a temp file and loads it back mmap'd with
/// lazy first-touch validation — the storage-mode twin every combination
/// below is additionally evaluated against. The temp file is removed
/// immediately (the mapping pins the inode), so nothing leaks on failure.
InvertedIndex LoadMmapTwin(const InvertedIndex& src, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/fts_diff_mmap_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(src, path).ok());
  LoadOptions options;
  options.mode = LoadOptions::Mode::kMmap;
  InvertedIndex twin;
  EXPECT_TRUE(LoadIndexFromFile(path, &twin, options).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(twin.lazy_validation());
  return twin;
}

/// Evaluates `query` three ways — block-resident, with the raw oracle
/// attached, and on `mmap_engine` (the same engine shape over the mmap'd
/// lazy-loaded twin index) — and asserts bit-identical nodes and scores
/// across all three. Returns the block-resident node set for cross-checks.
template <typename EngineT>
std::vector<NodeId> ExpectBlockMatchesRawOracle(EngineT& engine,
                                                EngineT& mmap_engine,
                                                const RawPostingOracle& oracle,
                                                const LangExprPtr& query,
                                                const char* what) {
  engine.set_raw_oracle_for_test(nullptr);
  auto block = engine.Evaluate(query);
  EXPECT_TRUE(block.ok()) << what << ": " << query->ToString() << ": "
                          << block.status().ToString();
  engine.set_raw_oracle_for_test(&oracle);
  auto raw = engine.Evaluate(query);
  engine.set_raw_oracle_for_test(nullptr);
  EXPECT_TRUE(raw.ok()) << what << ": " << query->ToString();
  auto mapped = mmap_engine.Evaluate(query);
  EXPECT_TRUE(mapped.ok()) << what << " (mmap): " << query->ToString() << ": "
                           << mapped.status().ToString();
  if (!block.ok() || !raw.ok() || !mapped.ok()) return {};
  EXPECT_EQ(block->nodes, raw->nodes) << what << ": " << query->ToString();
  // Exact double equality: the oracle runs the identical score arithmetic,
  // only the list representation differs, so every bit must match.
  EXPECT_EQ(block->scores, raw->scores) << what << ": " << query->ToString();
  // The mmap'd twin decodes the very same bytes straight from the file
  // (first-touch validated), so it too must match bit for bit.
  EXPECT_EQ(block->nodes, mapped->nodes)
      << what << " (mmap): " << query->ToString();
  EXPECT_EQ(block->scores, mapped->scores)
      << what << " (mmap): " << query->ToString();
  return block->nodes;
}

class BlockResidentDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockResidentDifferential, CursorStreamsMatchRawOracle) {
  // Below the engines: every block list replays the exact entry/position
  // stream of its raw twin, under sequential iteration and under an
  // interleaved seek/next access pattern.
  Rng rng(GetParam() * 29 + 1);
  Corpus corpus = RandomCorpus(&rng, 40, 8);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  ASSERT_EQ(oracle.lists.size(), index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    SCOPED_TRACE(index.token_text(t));
    // Sequential: identical node and position streams.
    ListCursor rc(oracle.list(t));
    BlockListCursor bc(index.block_list(t));
    while (true) {
      const NodeId expected = rc.NextEntry();
      ASSERT_EQ(bc.NextEntry(), expected);
      if (expected == kInvalidNode) break;
      auto rp = rc.GetPositions();
      auto bp = bc.GetPositions();
      ASSERT_EQ(std::vector<PositionInfo>(rp.begin(), rp.end()),
                std::vector<PositionInfo>(bp.begin(), bp.end()));
    }
    // Interleaved seek/next: identical landing nodes.
    ListCursor rs(oracle.list(t));
    BlockListCursor bs(index.block_list(t));
    while (!rs.exhausted()) {
      if (rng.Bernoulli(0.5)) {
        const NodeId target = static_cast<NodeId>(rng.Uniform(
            static_cast<uint32_t>(corpus.num_nodes()) + 2));
        ASSERT_EQ(rs.SeekEntry(target), bs.SeekEntry(target));
      } else {
        ASSERT_EQ(rs.NextEntry(), bs.NextEntry());
      }
      if (!rs.exhausted()) {
        ASSERT_EQ(rs.GetPositions().size(), bs.GetPositions().size());
      }
    }
  }
  // IL_ANY too.
  ListCursor ra(&oracle.any_list);
  BlockListCursor ba(&index.block_any_list());
  while (true) {
    const NodeId expected = ra.NextEntry();
    ASSERT_EQ(ba.NextEntry(), expected);
    if (expected == kInvalidNode) break;
    ASSERT_EQ(ra.GetPositions().size(), ba.GetPositions().size());
  }
}

TEST_P(BlockResidentDifferential, BoolQueriesMatchRawOracle) {
  Rng rng(GetParam() * 101 + 7);
  Corpus corpus = RandomCorpus(&rng, 30, 6);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(index, "bool_" + std::to_string(GetParam()));
  for (int trial = 0; trial < 8; ++trial) {
    LangExprPtr q = RandomBool(&rng, 3);
    const auto naive = NaiveNodes(corpus, q);
    for (ScoringKind scoring : kAllScoring) {
      for (CursorMode mode : {CursorMode::kSequential, CursorMode::kSeek,
                              CursorMode::kAdaptive}) {
        BoolEngine engine(&index, scoring, mode);
        BoolEngine mmap_engine(&mmap_index, scoring, mode);
        const auto nodes =
            ExpectBlockMatchesRawOracle(engine, mmap_engine, oracle, q, "BOOL");
        EXPECT_EQ(nodes, naive) << q->ToString();
      }
      CompEngine comp(&index, scoring);
      CompEngine mmap_comp(&mmap_index, scoring);
      const auto nodes =
          ExpectBlockMatchesRawOracle(comp, mmap_comp, oracle, q, "COMP");
      EXPECT_EQ(nodes, naive) << q->ToString();
    }
  }
}

TEST_P(BlockResidentDifferential, PpredQueriesMatchRawOracle) {
  Rng rng(GetParam() * 7919 + 3);
  Corpus corpus = RandomCorpus(&rng, 30, 7);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(index, "ppred_" + std::to_string(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    LangExprPtr q = RandomPipelined(&rng, /*allow_negative=*/false);
    const auto naive = NaiveNodes(corpus, q);
    for (ScoringKind scoring : kAllScoring) {
      for (CursorMode mode : {CursorMode::kSequential, CursorMode::kSeek,
                              CursorMode::kAdaptive}) {
        PpredEngine engine(&index, scoring, mode);
        PpredEngine mmap_engine(&mmap_index, scoring, mode);
        const auto nodes =
            ExpectBlockMatchesRawOracle(engine, mmap_engine, oracle, q, "PPRED");
        EXPECT_EQ(nodes, naive) << q->ToString();
      }
      CompEngine comp(&index, scoring);
      CompEngine mmap_comp(&mmap_index, scoring);
      ExpectBlockMatchesRawOracle(comp, mmap_comp, oracle, q, "COMP");
    }
  }
}

TEST_P(BlockResidentDifferential, NpredQueriesMatchRawOracle) {
  Rng rng(GetParam() * 104729 + 11);
  Corpus corpus = RandomCorpus(&rng, 25, 6);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(index, "npred_" + std::to_string(GetParam()));
  for (int trial = 0; trial < 5; ++trial) {
    LangExprPtr q = RandomPipelined(&rng, /*allow_negative=*/true);
    const auto naive = NaiveNodes(corpus, q);
    for (ScoringKind scoring : kAllScoring) {
      for (CursorMode mode : {CursorMode::kSequential, CursorMode::kSeek,
                              CursorMode::kAdaptive}) {
        NpredEngine engine(&index, scoring,
                           NpredOrderingMode::kNecessaryPartialOrders, mode);
        NpredEngine mmap_engine(&mmap_index, scoring,
                                NpredOrderingMode::kNecessaryPartialOrders, mode);
        const auto nodes =
            ExpectBlockMatchesRawOracle(engine, mmap_engine, oracle, q, "NPRED");
        EXPECT_EQ(nodes, naive) << q->ToString();
      }
      CompEngine comp(&index, scoring);
      CompEngine mmap_comp(&mmap_index, scoring);
      ExpectBlockMatchesRawOracle(comp, mmap_comp, oracle, q, "COMP");
    }
  }
}

TEST_P(BlockResidentDifferential, CompOnlyQueriesMatchRawOracle) {
  // EVERY-quantified and complement-heavy queries force the materialized
  // COMP path (IL_ANY scans, set complements) — the algebra operators read
  // the block lists through OpScanToken/OpScanHasPos.
  Rng rng(GetParam() * 65537 + 13);
  Corpus corpus = RandomCorpus(&rng, 20, 5);
  RawPostingOracle oracle = BuildRawPostingOracle(corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);
  InvertedIndex mmap_index =
      LoadMmapTwin(index, "comp_" + std::to_string(GetParam()));
  for (int trial = 0; trial < 5; ++trial) {
    LangExprPtr q;
    if (rng.Bernoulli(0.5)) {
      // EVERY p (p HAS t1 OR p HAS t2): all positions drawn from IL_ANY.
      q = LangExpr::Every("p",
                          LangExpr::Or(LangExpr::VarHasToken("p", Tok(&rng)),
                                       LangExpr::VarHasToken("p", Tok(&rng))));
    } else {
      q = LangExpr::And(LangExpr::Not(LangExpr::Token(Tok(&rng))),
                        LangExpr::Not(LangExpr::Token(Tok(&rng))));
    }
    const auto naive = NaiveNodes(corpus, q);
    for (ScoringKind scoring : kAllScoring) {
      CompEngine comp(&index, scoring);
      CompEngine mmap_comp(&mmap_index, scoring);
      const auto nodes =
          ExpectBlockMatchesRawOracle(comp, mmap_comp, oracle, q, "COMP");
      EXPECT_EQ(nodes, naive) << q->ToString();
    }
  }
}

// 10 seeds x (8 BOOL + 6 PPRED + 5 NPRED + 5 COMP-only) corpus/query
// combinations = 240, well past the >=50 acceptance bar; each combination
// is additionally evaluated across 3 scoring models and all three cursor
// modes (both forced modes plus the adaptive planner), so the planner's
// choices are pinned bit-identical to the fixed modes on every combo —
// and every evaluation is repeated on an mmap'd, lazily validated twin of
// the index (LoadMmapTwin), pinning the storage modes bit-identical too.
INSTANTIATE_TEST_SUITE_P(Seeds, BlockResidentDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace fts

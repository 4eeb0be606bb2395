// Structure-fill differential. Lists store token offsets only; a node's
// sentences and paragraphs live once in its index's run table
// (index/run_table.h), and a cursor fills them in only for a plan whose
// predicates read them (PositionPredicate::reads_structure). The four
// structural predicates — samepara, samesentence, not_samepara and
// not_samesentence — are the builtins that do, so this suite runs them
// through every engine that evaluates predicates (PPRED, NPRED, COMP, in
// each cursor mode) and pins the nodes to the naive calculus evaluator,
// which reads the corpus itself, not the index. A served reply compared
// with a reference Searcher over the same index cannot see a fill that
// never happens; this comparison does.
//
// Index shapes: multi-block lists with bitset blocks and with varint
// blocks only, the eager (string) and mapped loads, three segments with
// tombstones behind a Searcher, and their merge. CTest runs the binary
// twice, once on the dispatched decode arm and once with
// FTS_FORCE_SCALAR_DECODE=1 (structure_fill_scalar_test).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "eval/comp_engine.h"
#include "eval/npred_engine.h"
#include "eval/ppred_engine.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/index_snapshot.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"
#include "lang/translate.h"

#include "random_workload.h"

namespace fts {
namespace {

template <typename T>
T Must(StatusOr<T> v) {
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return std::move(*v);
}

constexpr const char* kStructural[] = {"samepara", "samesentence", "not_samepara",
                                       "not_samesentence"};
constexpr size_t kSegments = 3;

/// SOME v0 SOME v1 (v0 HAS a AND v1 HAS b AND pred(v0, v1)), with a
/// second, offset-only predicate when `distance` > 0, and a third token
/// under a second structural predicate when `third` is set.
LangExprPtr StructuralQuery(const std::string& a, const std::string& b,
                            const char* pred, int64_t distance,
                            const std::string& third, const char* pred2) {
  LangExprPtr body = LangExpr::And(LangExpr::VarHasToken("v0", a),
                                   LangExpr::VarHasToken("v1", b));
  body = LangExpr::And(std::move(body), LangExpr::Pred(pred, {"v0", "v1"}, {}));
  if (distance > 0) {
    body = LangExpr::And(std::move(body),
                         LangExpr::Pred("distance", {"v0", "v1"}, {distance}));
  }
  if (!third.empty()) {
    body = LangExpr::And(std::move(body), LangExpr::VarHasToken("v2", third));
    body = LangExpr::And(std::move(body), LangExpr::Pred(pred2, {"v1", "v2"}, {}));
    body = LangExpr::Some("v2", std::move(body));
  }
  return LangExpr::Some("v0", LangExpr::Some("v1", std::move(body)));
}

bool Negative(const char* pred) { return std::string(pred).starts_with("not_"); }

struct Query {
  LangExprPtr expr;
  bool negative;        // holds a negative predicate: NPRED, not PPRED
  std::vector<NodeId> want;  // naive over the full corpus
};

/// Every structural predicate over random token pairs, alone, beside a
/// distance bound, and chained to a third token.
std::vector<Query> MakeQueries(Rng* rng, const Corpus& corpus) {
  std::vector<Query> out;
  for (const char* pred : kStructural) {
    for (int i = 0; i < 6; ++i) {
      const std::string a = RandomWorkloadToken(rng), b = RandomWorkloadToken(rng);
      const int64_t distance = i % 3 == 1 ? 1 + static_cast<int64_t>(rng->Uniform(4)) : 0;
      const char* pred2 = kStructural[rng->Uniform(std::size(kStructural))];
      const bool chain = i % 3 == 2;
      out.push_back({StructuralQuery(a, b, pred, distance,
                                     chain ? RandomWorkloadToken(rng) : "", pred2),
                     Negative(pred) || (chain && Negative(pred2)),
                     {}});
    }
  }
  const NaiveCalculusEvaluator naive(&corpus);
  for (Query& q : out) q.want = Must(naive.Evaluate(Must(TranslateToCalculus(q.expr))));
  return out;
}

/// `index` saved and loaded back: from a string, or mapped from a file.
std::shared_ptr<const InvertedIndex> Reload(const InvertedIndex& index, bool mapped,
                                            const std::string& tag) {
  auto out = std::make_shared<InvertedIndex>();
  std::string blob;
  SaveIndexToString(index, &blob);
  if (!mapped) {
    EXPECT_TRUE(LoadIndexFromString(blob, out.get()).ok());
    return out;
  }
  const std::string path = ::testing::TempDir() + "/fts_structure_fill_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(index, path).ok());
  EXPECT_TRUE(LoadIndexFromFile(path, out.get(), {.mode = LoadOptions::Mode::kMmap}).ok());
  std::remove(path.c_str());  // the mapping outlives the name
  return out;
}

/// Nodes of `index` for `q` from the predicate engine of its class and
/// from COMP, in every cursor mode.
void ExpectEnginesMatch(const InvertedIndex& index, const Query& q,
                        const std::vector<NodeId>& want, const std::string& what) {
  for (const CursorMode mode :
       {CursorMode::kSequential, CursorMode::kSeek, CursorMode::kAdaptive}) {
    SCOPED_TRACE(what + " mode " + CursorModeToString(mode) + ": " + q.expr->ToString());
    ExecContext ctx;
    if (q.negative) {
      const NpredEngine npred(&index, ScoringKind::kNone,
                              NpredOrderingMode::kNecessaryPartialOrders, mode);
      EXPECT_EQ(Must(npred.Evaluate(q.expr, ctx)).nodes, want) << "NPRED";
    } else {
      const PpredEngine ppred(&index, ScoringKind::kNone, mode);
      EXPECT_EQ(Must(ppred.Evaluate(q.expr, ctx)).nodes, want) << "PPRED";
    }
  }
  ExecContext ctx;
  const CompEngine comp(&index, ScoringKind::kNone);
  EXPECT_EQ(Must(comp.Evaluate(q.expr, ctx)).nodes, want)
      << what << " COMP: " << q.expr->ToString();
}

/// Counts the lists of `index` with more than one block, and their bitset
/// blocks.
std::pair<size_t, size_t> BlockShape(const InvertedIndex& index) {
  size_t multi_block = 0, bitset = 0;
  for (TokenId t = 0; t <= index.vocabulary_size(); ++t) {
    const BlockPostingList& list =
        t < index.vocabulary_size() ? *index.block_list(t) : index.block_any_list();
    multi_block += list.num_blocks() > 1;
    for (const auto& skip : list.skips()) {
      bitset += skip.encoding == BlockPostingList::kEncodingBitset;
    }
  }
  return {multi_block, bitset};
}

class StructureFill : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructureFill, StructuralPredicatesMatchTheNaiveEvaluator) {
  Rng rng(GetParam() * 7919 + 3);
  const Corpus full = RandomWorkloadCorpus(&rng, 420, 7);
  const std::vector<Query> queries = MakeQueries(&rng, full);
  const std::string tag = std::to_string(GetParam());

  // One index with bitset blocks, one with varint blocks only, each
  // multi-block; the first also loaded back from a string and a file.
  std::vector<std::pair<std::string, std::shared_ptr<const InvertedIndex>>> whole;
  for (const bool dense : {true, false}) {
    const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(dense);
    auto built = std::make_shared<InvertedIndex>(IndexBuilder::Build(full));
    BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
    const auto [multi_block, bitset] = BlockShape(*built);
    EXPECT_GT(multi_block, 0u);
    EXPECT_EQ(bitset > 0, dense);
    whole.emplace_back(dense ? "bitset" : "varint", built);
  }
  whole.emplace_back("eager", Reload(*whole[0].second, false, tag));
  whole.emplace_back("mmap", Reload(*whole[0].second, true, tag));
  for (const auto& [what, index] : whole) {
    for (const Query& q : queries) ExpectEnginesMatch(*index, q, q.want, what);
  }

  // Three contiguous segments, a quarter of the nodes tombstoned (node 0
  // always lives), served through a Searcher by global id, and merged into
  // one index numbered densely over the survivors.
  const size_t n = full.num_nodes();
  std::vector<bool> deleted(n);
  std::vector<NodeId> survivor_id(n, kInvalidNode);
  NodeId dense_id = 0;
  for (size_t i = 0; i < n; ++i) {
    deleted[i] = i > 0 && rng.Bernoulli(0.25);
    if (!deleted[i]) survivor_id[i] = dense_id++;
  }
  std::vector<std::shared_ptr<const InvertedIndex>> heap, mapped;
  std::vector<std::shared_ptr<const TombstoneSet>> tombstones;
  std::vector<SegmentView> views;
  NodeId base = 0;
  for (size_t s = 0; s < kSegments; ++s) {
    const NodeId end = static_cast<NodeId>((s + 1) * n / kSegments);
    auto segment = std::make_shared<InvertedIndex>(
        IndexBuilder::Build(Must(full.Slice(base, end))));
    auto dead = std::make_shared<TombstoneSet>(segment->num_nodes());
    for (NodeId local = 0; local < segment->num_nodes(); ++local) {
      if (deleted[base + local]) dead->MarkDeleted(local);
    }
    views.push_back({segment.get(), base, dead.get()});
    mapped.push_back(Reload(*segment, true, tag + "_" + std::to_string(s)));
    heap.push_back(std::move(segment));
    tombstones.push_back(std::move(dead));
    base = end;
  }
  const InvertedIndex merged = Must(MergeSegments(views));
  for (const Query& q : queries) {
    std::vector<NodeId> live, dense;
    for (const NodeId id : q.want) {
      if (deleted[id]) continue;
      live.push_back(id);
      dense.push_back(survivor_id[id]);
    }
    ExpectEnginesMatch(merged, q, dense, "merged");
    for (const auto& [what, segments] :
         {std::pair{"segments/heap", &heap}, std::pair{"segments/mmap", &mapped}}) {
      const Searcher searcher(Must(IndexSnapshot::Create(*segments, tombstones, 1)),
                              {ScoringKind::kNone});
      ExecContext ctx;
      EXPECT_EQ(Must(searcher.SearchParsed(q.expr, ctx)).result.nodes, live)
          << what << ": " << q.expr->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureFill, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fts

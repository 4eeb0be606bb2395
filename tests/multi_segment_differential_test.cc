// Differential proof of the segment architecture: a Searcher over a
// multi-segment IndexSnapshot — three sealed segments with random
// tombstoned deletes — must answer every query with the SAME nodes (up to
// the compaction renumbering) and the SAME bit-for-bit scores as a
// single-shot IndexBuilder run over only the surviving documents. The
// harness runs the familiar 240-combination workload (10 seeds x 24
// random queries drawn from every language class), each combination
// across all three scoring models, all three cursor modes, and both
// storage modes (heap-built segments and mmap'd lazily validated twins),
// and each of those both full and as a ranked top-10 request (which must
// be bit-identical to TopK over the full evaluation — the block-max
// early-termination proof, with random deletes in the mix so tombstoned
// entries can only loosen block bounds, never break them).
// MergeSegments is pinned the same way: the compacted segment must be
// indistinguishable from the single-shot build at the query level. The
// naive calculus evaluator over the surviving corpus anchors the node
// sets to the paper's semantics, so snapshot, merge, and single-shot
// evaluation are all pinned to one external reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/index_snapshot.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"
#include "lang/ast.h"
#include "lang/translate.h"
#include "scoring/topk.h"
#include "testing/random_workload.h"
#include "text/corpus.h"

namespace fts {
namespace {

constexpr size_t kSegments = 3;

constexpr ScoringKind kAllScoring[] = {ScoringKind::kNone, ScoringKind::kTfIdf,
                                       ScoringKind::kProbabilistic};
constexpr CursorMode kAllModes[] = {CursorMode::kSequential, CursorMode::kSeek,
                                    CursorMode::kAdaptive};

/// Copies document `id` of `src` into `dst` verbatim (token spellings and
/// exact positions), so a rebuilt corpus tokenizes identically.
void AppendDoc(const Corpus& src, NodeId id, Corpus* dst) {
  const TokenizedDocument& d = src.doc(id);
  std::vector<std::string> tokens;
  tokens.reserve(d.tokens.size());
  for (TokenId t : d.tokens) tokens.push_back(src.token_text(t));
  auto added = dst->AddTokensWithPositions(tokens, d.positions);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
}

/// One seeded scenario: a corpus split into three contiguous segments,
/// random tombstoned deletes, the surviving documents rebuilt as the
/// single-shot reference, and the query mix.
struct SegmentedWorkload {
  Corpus full;
  std::vector<Corpus> parts;          // kSegments contiguous slices
  std::vector<bool> deleted;          // by pre-compaction global id
  Corpus surviving;                   // survivors, densely renumbered
  std::vector<NodeId> survivor_id;    // global id -> dense id (kInvalidNode
                                      // when deleted)
  std::vector<LangExprPtr> queries;   // 24 per seed: all language classes
};

SegmentedWorkload MakeSegmented(uint64_t seed) {
  SegmentedWorkload w;
  Rng rng(seed * 6151 + 23);
  w.full = RandomWorkloadCorpus(&rng, 30, 6);
  const size_t n = w.full.num_nodes();

  w.deleted.resize(n);
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    w.deleted[i] = rng.Bernoulli(0.25);
    if (!w.deleted[i]) ++live;
  }
  if (live == 0) w.deleted[0] = false;  // keep at least one survivor

  // Contiguous split: segment s owns global ids [s*n/3, (s+1)*n/3).
  w.parts.resize(kSegments);
  w.survivor_id.assign(n, kInvalidNode);
  NodeId dense = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t seg = i * kSegments / n;
    AppendDoc(w.full, static_cast<NodeId>(i), &w.parts[seg]);
    if (!w.deleted[i]) {
      w.survivor_id[i] = dense++;
      AppendDoc(w.full, static_cast<NodeId>(i), &w.surviving);
    }
  }

  // The 24-query mix: every language class, same generators as the other
  // differential harnesses.
  for (int i = 0; i < 8; ++i) w.queries.push_back(RandomBoolQuery(&rng, 3));
  for (int i = 0; i < 6; ++i) {
    w.queries.push_back(RandomPipelinedQuery(&rng, /*allow_negative=*/false));
  }
  for (int i = 0; i < 5; ++i) {
    w.queries.push_back(RandomPipelinedQuery(&rng, /*allow_negative=*/true));
  }
  for (int i = 0; i < 5; ++i) {
    // COMP-only shapes: universal quantification (IL_ANY scans) and
    // complement conjunctions — the paths where tombstones must shrink
    // the scan universe, not just filter posting lists.
    if (rng.Bernoulli(0.5)) {
      w.queries.push_back(LangExpr::Every(
          "p", LangExpr::Or(
                   LangExpr::VarHasToken("p", RandomWorkloadToken(&rng)),
                   LangExpr::VarHasToken("p", RandomWorkloadToken(&rng)))));
    } else {
      w.queries.push_back(
          LangExpr::And(LangExpr::Not(LangExpr::Token(RandomWorkloadToken(&rng))),
                        LangExpr::Not(LangExpr::Token(RandomWorkloadToken(&rng)))));
    }
  }
  return w;
}

/// Round-trips `src` through a temp file and loads it back mmap'd with
/// lazy first-touch validation (file removed immediately; the mapping pins
/// the inode).
InvertedIndex LoadMmapTwin(const InvertedIndex& src, const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/fts_seg_mmap_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(src, path).ok());
  LoadOptions options;
  options.mode = LoadOptions::Mode::kMmap;
  InvertedIndex twin;
  EXPECT_TRUE(LoadIndexFromFile(path, &twin, options).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(twin.lazy_validation());
  return twin;
}

/// Builds the per-segment tombstone bitmaps for `w` (null where a segment
/// has no deletes, exercising the null-bitmap path).
std::vector<std::shared_ptr<const TombstoneSet>> BuildTombstones(
    const SegmentedWorkload& w) {
  std::vector<std::shared_ptr<const TombstoneSet>> out(kSegments);
  const size_t n = w.full.num_nodes();
  size_t base = 0;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    const size_t count = w.parts[seg].num_nodes();
    std::shared_ptr<TombstoneSet> bitmap;
    for (size_t local = 0; local < count; ++local) {
      if (w.deleted[base + local]) {
        if (!bitmap) bitmap = std::make_shared<TombstoneSet>(count);
        bitmap->MarkDeleted(static_cast<NodeId>(local));
      }
    }
    out[seg] = std::move(bitmap);
    base += count;
  }
  EXPECT_EQ(base, n);
  return out;
}

std::vector<NodeId> NaiveNodes(const Corpus& corpus, const LangExprPtr& query) {
  auto calc = TranslateToCalculus(query);
  EXPECT_TRUE(calc.ok()) << calc.status().ToString();
  NaiveCalculusEvaluator oracle(&corpus);
  auto nodes = oracle.Evaluate(*calc);
  EXPECT_TRUE(nodes.ok());
  return nodes.ok() ? *nodes : std::vector<NodeId>{};
}

/// Evaluates `query` on both searchers and asserts the snapshot's answer,
/// mapped through the compaction renumbering, is bit-identical to the
/// single-shot reference — nodes, scores, and serving engine.
void ExpectSnapshotMatchesReference(const Searcher& snapshot_searcher,
                                    const Searcher& reference,
                                    const std::vector<NodeId>& survivor_id,
                                    const LangExprPtr& query,
                                    const char* what) {
  ExecContext snap_ctx;
  ExecContext ref_ctx;
  auto snap = snapshot_searcher.SearchParsed(query, snap_ctx);
  auto ref = reference.SearchParsed(query, ref_ctx);
  ASSERT_TRUE(snap.ok()) << what << ": " << query->ToString() << ": "
                         << snap.status().ToString();
  ASSERT_TRUE(ref.ok()) << what << ": " << query->ToString() << ": "
                        << ref.status().ToString();
  // Map the snapshot's global ids (which skip tombstoned documents) onto
  // the dense renumbering the single-shot build uses.
  std::vector<NodeId> mapped;
  mapped.reserve(snap->result.nodes.size());
  for (const NodeId n : snap->result.nodes) {
    ASSERT_LT(n, survivor_id.size()) << what << ": " << query->ToString();
    ASSERT_NE(survivor_id[n], kInvalidNode)
        << what << ": " << query->ToString()
        << ": tombstoned document leaked into the result: " << n;
    mapped.push_back(survivor_id[n]);
  }
  EXPECT_EQ(mapped, ref->result.nodes) << what << ": " << query->ToString();
  // Exact double equality on purpose: the snapshot's scoring stats must
  // reproduce the single-shot arithmetic bit for bit.
  EXPECT_EQ(snap->result.scores, ref->result.scores)
      << what << ": " << query->ToString();
  EXPECT_EQ(snap->engine, ref->engine) << what << ": " << query->ToString();

  // Top-k axis: a ranked top-10 request on the same searcher must be
  // bit-identical — nodes, scores, rank order — to TopK over the full
  // evaluation, whichever path it takes (block-max early termination on
  // seek modes, full evaluation elsewhere). Tombstoned documents may
  // inflate block maxima (bounds stay sound) but must never surface.
  constexpr size_t kTopK = 10;
  ExecContext ranked_ctx;
  ranked_ctx.set_top_k(kTopK);
  auto ranked = snapshot_searcher.SearchParsed(query, ranked_ctx);
  ASSERT_TRUE(ranked.ok()) << what << ": " << query->ToString() << ": "
                           << ranked.status().ToString();
  EXPECT_EQ(ranked->engine, snap->engine) << what << ": " << query->ToString();
  std::vector<NodeId> expect_nodes;
  std::vector<double> expect_scores;
  if (snap->result.scores.empty()) {
    // Unscored: every candidate ties at zero, so rank order is ascending
    // node id — the first k full results, scores omitted.
    const size_t n = std::min(kTopK, snap->result.nodes.size());
    expect_nodes.assign(snap->result.nodes.begin(),
                        snap->result.nodes.begin() + n);
  } else {
    for (const ScoredNode& s :
         TopK(snap->result.nodes, snap->result.scores, kTopK)) {
      expect_nodes.push_back(s.node);
      expect_scores.push_back(s.score);
    }
  }
  EXPECT_EQ(ranked->result.nodes, expect_nodes)
      << what << ": " << query->ToString();
  EXPECT_EQ(ranked->result.scores, expect_scores)
      << what << ": " << query->ToString();
}

class MultiSegmentDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiSegmentDifferential, SnapshotMatchesSingleShotBuild) {
  const uint64_t seed = GetParam();
  SegmentedWorkload w = MakeSegmented(seed);

  // Heap-built segments, plus mmap'd lazily validated twins of the same.
  std::vector<std::shared_ptr<const InvertedIndex>> heap_segments;
  std::vector<std::shared_ptr<const InvertedIndex>> mmap_segments;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    auto built =
        std::make_shared<InvertedIndex>(IndexBuilder::Build(w.parts[seg]));
    mmap_segments.push_back(std::make_shared<InvertedIndex>(LoadMmapTwin(
        *built, std::to_string(seed) + "_" + std::to_string(seg))));
    heap_segments.push_back(std::move(built));
  }
  const auto tombstones = BuildTombstones(w);

  auto heap_snapshot = IndexSnapshot::Create(heap_segments, tombstones, 1);
  ASSERT_TRUE(heap_snapshot.ok()) << heap_snapshot.status().ToString();
  auto mmap_snapshot = IndexSnapshot::Create(mmap_segments, tombstones, 1);
  ASSERT_TRUE(mmap_snapshot.ok()) << mmap_snapshot.status().ToString();
  EXPECT_EQ((*heap_snapshot)->total_nodes(), w.full.num_nodes());
  EXPECT_EQ((*heap_snapshot)->live_nodes(), w.surviving.num_nodes());

  const InvertedIndex reference_index = IndexBuilder::Build(w.surviving);
  const auto reference_snapshot = IndexSnapshot::ForIndex(&reference_index);

  const std::pair<std::shared_ptr<const IndexSnapshot>, const char*>
      kStorage[] = {{*heap_snapshot, "heap"}, {*mmap_snapshot, "mmap"}};

  for (const LangExprPtr& q : w.queries) {
    // Anchor the reference itself to the paper's semantics once per query.
    const std::vector<NodeId> naive = NaiveNodes(w.surviving, q);
    ExecContext ctx;
    Searcher anchor(reference_snapshot,
                    {ScoringKind::kNone, CursorMode::kAdaptive});
    auto anchored = anchor.SearchParsed(q, ctx);
    ASSERT_TRUE(anchored.ok()) << q->ToString();
    EXPECT_EQ(anchored->result.nodes, naive) << q->ToString();

    for (const auto& [snapshot, storage] : kStorage) {
      for (ScoringKind scoring : kAllScoring) {
        for (CursorMode mode : kAllModes) {
          Searcher snapshot_searcher(snapshot, {scoring, mode});
          Searcher reference(reference_snapshot, {scoring, mode});
          ExpectSnapshotMatchesReference(snapshot_searcher, reference,
                                         w.survivor_id, q, storage);
        }
      }
    }
  }
}

TEST_P(MultiSegmentDifferential, MergedSegmentMatchesSingleShotBuild) {
  // Compaction is a rebuild: MergeSegments over the segment list (with
  // tombstones) must hand back exactly the index a single-shot build of
  // the survivors produces — dense ids, so results compare directly with
  // no renumbering map.
  const uint64_t seed = GetParam();
  SegmentedWorkload w = MakeSegmented(seed);

  std::vector<std::shared_ptr<const InvertedIndex>> segments;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    segments.push_back(
        std::make_shared<InvertedIndex>(IndexBuilder::Build(w.parts[seg])));
  }
  const auto tombstones = BuildTombstones(w);
  std::vector<SegmentView> views;
  NodeId base = 0;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    SegmentView v;
    v.index = segments[seg].get();
    v.base = base;
    v.tombstones = tombstones[seg].get();
    views.push_back(v);
    base += static_cast<NodeId>(segments[seg]->num_nodes());
  }
  auto merged = MergeSegments(views);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const InvertedIndex merged_index = std::move(merged).value();
  const InvertedIndex reference_index = IndexBuilder::Build(w.surviving);
  ASSERT_EQ(merged_index.num_nodes(), reference_index.num_nodes());

  const auto merged_snapshot = IndexSnapshot::ForIndex(&merged_index);
  const auto reference_snapshot = IndexSnapshot::ForIndex(&reference_index);
  std::vector<NodeId> identity(merged_index.num_nodes());
  for (NodeId i = 0; i < identity.size(); ++i) identity[i] = i;

  for (const LangExprPtr& q : w.queries) {
    for (ScoringKind scoring : kAllScoring) {
      Searcher merged_searcher(merged_snapshot,
                               {scoring, CursorMode::kAdaptive});
      Searcher reference(reference_snapshot,
                         {scoring, CursorMode::kAdaptive});
      ExpectSnapshotMatchesReference(merged_searcher, reference, identity, q,
                                     "merged");
    }
  }
}

// 10 seeds x 24 queries = 240 corpus/query combinations, each pinned
// across 3 scoring models x 3 cursor modes x 2 storage modes against the
// single-shot build of the surviving documents (and the merged-segment
// compaction against the same reference).
INSTANTIATE_TEST_SUITE_P(Seeds, MultiSegmentDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace fts

// Block-max top-k evaluation: ranked retrieval with score-based early
// termination (the Block-Max WAND / MaxScore family) over the block-
// compressed skip-seekable lists.
//
// A full scored evaluation decodes every candidate block and scores every
// matching node, then keeps the top k. When k is small that is almost all
// wasted work: once the top-k heap is full, a candidate can only enter by
// beating the heap's weakest score, and whole blocks whose impact upper
// bounds (from the per-block max_tf in the skip directory) cannot beat
// that threshold need never be decoded. This evaluator walks candidates in
// ascending node-id order, maintains a per-expression score upper bound
// from the leaves' shallow block frontiers, and hops the document ranges —
// and therefore the blocks — that provably cannot change the result.
//
// Exactness contract: the top-k result (nodes, scores, rank order) is
// bit-identical to full evaluation followed by TopK. Deep evaluation walks
// the original binary expression tree with exactly the score expressions
// BoolEvaluator uses (EntryScore / JoinScore(l,1,r,1) / UnionBoth), so a
// scored node gets the same IEEE double either way; skipping is sound
// because candidates arrive in ascending id order, so a candidate whose
// upper bound is <= the heap threshold could never enter the heap (equal
// scores lose the tie-break to the smaller ids already present).
//
// A score model that cannot bound a list returns +inf for its blocks, which
// disables skipping for that list while remaining exact.

#ifndef FTS_EVAL_BLOCK_MAX_H_
#define FTS_EVAL_BLOCK_MAX_H_

#include "common/metrics.h"
#include "common/status.h"
#include "eval/engine.h"
#include "exec/exec_context.h"
#include "index/inverted_index.h"
#include "lang/ast.h"
#include "scoring/score_model.h"
#include "scoring/topk.h"

namespace fts {

/// True when `normalized` (a NormalizeSurface'd surface query) is a pure
/// token / AND / OR tree — the language class this evaluator handles.
/// ANY and NOT have no per-block impact bounds (ANY's "list" is every
/// node; NOT inverts absence), so queries containing them take the full
/// evaluation path.
bool BlockMaxSupports(const LangExprPtr& normalized);

/// Evaluates `normalized` against one index (segment), feeding every
/// result that could enter the top k into `acc` as (base + node, score).
/// `model` must be the exact score model a full BOOL evaluation of this
/// query would use (same stats, same query tokens) — scores are computed
/// with it, and its EntryScoreUpperBound supplies the block bounds.
/// `runtime` provides segment tombstones (scoring stats are already baked
/// into `model`); may be null. Counters (decode work plus
/// blocks_skipped_by_score) are merged into `ctx.counters()` and, when
/// `query_counters` is non-null, into it as well. Returns
/// DeadlineExceeded when ctx's deadline expires mid-loop and propagates
/// sticky cursor decode errors (first-touch validation failures).
Status EvaluateBlockMaxTopK(const InvertedIndex& index,
                            const LangExprPtr& normalized,
                            const AlgebraScoreModel& model,
                            const SegmentRuntime* runtime, ExecContext& ctx,
                            NodeId base, TopKAccumulator& acc,
                            EvalCounters* query_counters = nullptr);

}  // namespace fts

#endif  // FTS_EVAL_BLOCK_MAX_H_

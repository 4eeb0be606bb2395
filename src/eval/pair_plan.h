// Multi-index planning and evaluation for phrase/NEAR-shaped plans over
// the auxiliary pair lists (index/pair_index.h, docs/pair_index.md).
//
// PPRED/NPRED compilation turns `dist(a, b, k)` (and its ordered variant)
// into Project* ( Select[distance/odistance] ( Project* ( Join(Token a,
// Token b) ) ) ). For that shape the pair index can answer the whole
// operator from one list whose length is the *result* cardinality: the
// classic frequent-term worst case — both driver lists huge, nearly every
// decoded position discarded — collapses to a single skip-seekable read.
// This is the planner's first choice between indexes; its cost rule is
// PlanPairList in eval/planner.h, beside the seek-vs-sequential one.
//
// Exactness: the routed evaluation reproduces the position pipeline bit
// for bit (nodes and scores).
//   - Node set: a pair list stores every co-occurrence with |offset
//     delta| <= max_distance + 1, which the distance/odistance Eval
//     conventions (|d| <= k+1, resp. 0 < d <= k+1) are contained in for
//     any query k <= max_distance; an eligible key that is absent proves
//     the result empty.
//   - Scores: the pipeline's score for this shape is SelectScore(
//     JoinScore(EntryScore(a), 1, EntryScore(b), 1), pred, witness,
//     consts), where the witness is the satisfying position pair the
//     select cursor rests on. The select walk's advance rule lands on the
//     coordinatewise-minimal satisfying pair (each advance only skips
//     positions that cannot satisfy with any current-or-future partner),
//     so the witness is recomputable from the records alone as the
//     lexicographic minimum of (off_a, off_b) over satisfying records —
//     which is what EvaluatePairPlan selects, and the stored per-node term
//     frequencies feed the identical EntryScore calls.

#ifndef FTS_EVAL_PAIR_PLAN_H_
#define FTS_EVAL_PAIR_PLAN_H_

#include "algebra/fta.h"
#include "eval/engine.h"

namespace fts {

/// The one-stop hook the PPRED/NPRED single pass calls after compiling a
/// plan: match the shape, route (eligibility here, then the cost rule
/// PlanPairList in eval/planner.h) and evaluate. Returns true when the
/// query was answered via the pair index (`result` filled, counters
/// charged), false to fall through to the position pipeline, or an error
/// status from evaluation.
StatusOr<bool> TryEvaluatePairPlan(const FtaExprPtr& plan,
                                   const InvertedIndex& index,
                                   const AlgebraScoreModel* model,
                                   CursorMode mode, PairRouting routing,
                                   const TombstoneSet* tombstones,
                                   ExecContext& ectx, QueryResult* result);

}  // namespace fts

#endif  // FTS_EVAL_PAIR_PLAN_H_

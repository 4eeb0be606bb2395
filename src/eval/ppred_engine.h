// PPRED evaluation (paper Section 5.5): compile the query to an algebra
// plan and run it as a single pipelined pass over the inverted lists using
// the PosCursor operators (Algorithms 1-5). Handles the PPRED language
// class — positive predicates, AND/OR/SOME, and AND NOT of closed
// subqueries — in time linear in the query-token inverted lists.

#ifndef FTS_EVAL_PPRED_ENGINE_H_
#define FTS_EVAL_PPRED_ENGINE_H_

#include "algebra/fta.h"
#include "eval/engine.h"

namespace fts {

/// The single pipelined pass over a compiled PPRED-class `plan`, shared by
/// PpredEngine and NPRED's no-negative-predicate path: tries the pair-index
/// route, attaches the context's L1 when the plan rescans a list,
/// builds the pipeline in the planned cursor mode and drains it (scored
/// when `model` is non-null), fails on a lazily detected decode error,
/// stamps `orderings_run` on the counters and merges them into `ectx`.
StatusOr<QueryResult> EvaluateSinglePass(
    const FtaExprPtr& plan, const InvertedIndex* index,
    const AlgebraScoreModel* model, CursorMode mode, PairRouting routing,
    const SegmentRuntime& segment, uint64_t orderings_run, ExecContext& ectx);

/// Single-scan pipelined evaluator for the PPRED class. Returns Unsupported
/// for queries whose plans need IL_ANY or general predicates. In seek mode
/// the pipeline's zig-zag joins skip over the block-compressed lists via
/// SeekEntry instead of stepping entry by entry.
class PpredEngine : public Engine {
 public:
  /// `index` must outlive the engine; `routing` says whether
  /// phrase/NEAR-shaped plans may route to the pair index
  /// (src/eval/pair_plan.h); `segment` (nullable) carries the tombstones
  /// and scoring record when `index` is one segment of a snapshot (see
  /// SegmentRuntime).
  PpredEngine(const InvertedIndex* index, ScoringKind scoring,
              CursorMode mode = CursorMode::kSequential,
              PairRouting routing = PairRouting::kAuto,
              const SegmentRuntime* segment = nullptr)
      : index_(index),
        scoring_(scoring),
        mode_(mode),
        pair_routing_(routing),
        segment_(SegmentRuntime::Of(*index, segment)) {}

  std::string_view name() const override { return "PPRED"; }

  using Engine::Evaluate;
  StatusOr<QueryResult> Evaluate(const LangExprPtr& query,
                                 ExecContext& ctx) const override;

  CursorMode mode() const { return mode_; }
  PairRouting pair_routing() const { return pair_routing_; }

 private:
  const InvertedIndex* index_;
  ScoringKind scoring_;
  CursorMode mode_;
  PairRouting pair_routing_;
  SegmentRuntime segment_;
};

}  // namespace fts

#endif  // FTS_EVAL_PPRED_ENGINE_H_

// BOOL evaluation (paper Section 5.3): sort-merge of inverted-list node
// ids. AND NOT pairs evaluate as list differences (the BOOL-NONEG path);
// free-standing NOT and ANY fall back to the node universe, which the cost
// model charges as an IL_ANY scan (cnodes entries). Scores follow the
// Section 3 per-operator formulas applied at node granularity.

#ifndef FTS_EVAL_BOOL_ENGINE_H_
#define FTS_EVAL_BOOL_ENGINE_H_

#include <memory>

#include "eval/engine.h"
#include "scoring/score_model.h"

namespace fts {

/// Merge-based evaluator for the BOOL / BOOL-NONEG languages over the
/// block-resident lists. In seek mode AND of token operands runs as a
/// zig-zag intersection, decoding only the blocks the join lands in;
/// sequential mode reproduces the paper's full-scan merges exactly.
class BoolEngine : public Engine {
 public:
  /// `index` must outlive the engine; `segment` (nullable) carries the
  /// tombstones and scoring record when `index` is one segment of a
  /// snapshot (see SegmentRuntime).
  BoolEngine(const InvertedIndex* index, ScoringKind scoring,
             CursorMode mode = CursorMode::kSequential,
             const SegmentRuntime* segment = nullptr)
      : index_(index),
        scoring_(scoring),
        mode_(mode),
        segment_(SegmentRuntime::Of(*index, segment)) {}

  std::string_view name() const override { return "BOOL"; }

  using Engine::Evaluate;
  StatusOr<QueryResult> Evaluate(const LangExprPtr& query,
                                 ExecContext& ctx) const override;

  CursorMode mode() const { return mode_; }

 private:
  const InvertedIndex* index_;
  ScoringKind scoring_;
  CursorMode mode_;
  SegmentRuntime segment_;
};

}  // namespace fts

#endif  // FTS_EVAL_BOOL_ENGINE_H_

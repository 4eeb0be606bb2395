// COMP evaluation (paper Section 5.4): translate the query to the calculus,
// compile to the algebra, and evaluate operators bottom-up on materialized
// full-text relations. Complete for the whole language; polynomial in the
// data and exponential in the query (the per-node join products).

#ifndef FTS_EVAL_COMP_ENGINE_H_
#define FTS_EVAL_COMP_ENGINE_H_

#include "eval/engine.h"

namespace fts {

/// Materialized-algebra evaluator; the completeness baseline every other
/// engine is differentially tested against.
class CompEngine : public Engine {
 public:
  /// `index` must outlive the engine; `segment` (nullable) carries the
  /// tombstones and scoring record when `index` is one segment of a
  /// snapshot (see SegmentRuntime).
  CompEngine(const InvertedIndex* index, ScoringKind scoring,
             const SegmentRuntime* segment = nullptr)
      : index_(index),
        scoring_(scoring),
        segment_(SegmentRuntime::Of(*index, segment)) {}

  std::string_view name() const override { return "COMP"; }

  using Engine::Evaluate;
  StatusOr<QueryResult> Evaluate(const LangExprPtr& query,
                                 ExecContext& ctx) const override;

 private:
  const InvertedIndex* index_;
  ScoringKind scoring_;
  SegmentRuntime segment_;
};

}  // namespace fts

#endif  // FTS_EVAL_COMP_ENGINE_H_

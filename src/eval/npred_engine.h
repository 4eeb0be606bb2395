// NPRED evaluation (paper Section 5.6): pipelined scans extended to
// negative predicates. Because a negative predicate can only be satisfied
// by widening the gap between its smallest and largest positions, the
// engine runs one pipelined pass per ordering of the negative-predicate
// cursors — pinning each ordering with positive `le` selections — and
// unions the per-thread results (Algorithms 6-7).
//
// Two ordering strategies are provided, matching the remark at the end of
// Section 5.6.2: the naive one enumerates all toks_Q! total orders of the
// query's position variables; the optimized one (the paper's "only the
// necessary partial orders", our default) permutes only the variables that
// negative predicates actually mention.

#ifndef FTS_EVAL_NPRED_ENGINE_H_
#define FTS_EVAL_NPRED_ENGINE_H_

#include "eval/engine.h"

namespace fts {

/// How NPRED enumerates cursor orderings.
enum class NpredOrderingMode {
  /// Permute only variables used in negative predicates (default).
  kNecessaryPartialOrders,
  /// Permute every quantified variable (the naive toks_Q! scheme); kept for
  /// the ablation benchmark.
  kAllTotalOrders,
};

/// Per-ordering pipelined evaluator for the NPRED class.
class NpredEngine : public Engine {
 public:
  /// `index` must outlive the engine; `routing` says whether
  /// phrase/NEAR-shaped plans may route to the pair index on the
  /// no-negative-predicates single-pass path (src/eval/pair_plan.h) — the
  /// ordering-enumeration path never routes, its plans carry `le`
  /// selections outside the pairable shape; `segment` (nullable) carries
  /// the tombstones and scoring record when `index` is one segment of a
  /// snapshot (see SegmentRuntime).
  NpredEngine(const InvertedIndex* index, ScoringKind scoring,
              NpredOrderingMode mode = NpredOrderingMode::kNecessaryPartialOrders,
              CursorMode cursor_mode = CursorMode::kSequential,
              PairRouting routing = PairRouting::kAuto,
              const SegmentRuntime* segment = nullptr)
      : index_(index),
        scoring_(scoring),
        mode_(mode),
        cursor_mode_(cursor_mode),
        pair_routing_(routing),
        segment_(SegmentRuntime::Of(*index, segment)) {}

  std::string_view name() const override { return "NPRED"; }

  using Engine::Evaluate;
  StatusOr<QueryResult> Evaluate(const LangExprPtr& query,
                                 ExecContext& ctx) const override;

  CursorMode cursor_mode() const { return cursor_mode_; }
  PairRouting pair_routing() const { return pair_routing_; }

 private:
  const InvertedIndex* index_;
  ScoringKind scoring_;
  NpredOrderingMode mode_;
  CursorMode cursor_mode_;
  PairRouting pair_routing_;
  SegmentRuntime segment_;
};

}  // namespace fts

#endif  // FTS_EVAL_NPRED_ENGINE_H_

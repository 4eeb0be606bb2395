// Full-text algebra expression trees (paper Section 2.3.1) and their
// materialized evaluator — the query-plan representation shared by the COMP
// engine (which evaluates it bottom-up, Section 5.4) and the pipelined
// PPRED/NPRED engines (which walk the same tree with cursors instead of
// materialized relations; eval/pos_cursor.h).

#ifndef FTS_ALGEBRA_FTA_H_
#define FTS_ALGEBRA_FTA_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "algebra/relation.h"
#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "index/inverted_index.h"
#include "scoring/score_model.h"

namespace fts {

class FtaExpr;
using FtaExprPtr = std::shared_ptr<const FtaExpr>;

/// Immutable algebra expression node.
class FtaExpr {
 public:
  enum class Kind {
    kSearchContext,  ///< all context nodes, 0 position columns
    kHasPos,         ///< all (node, position) pairs, 1 column
    kToken,          ///< R_token, 1 column
    kProject,        ///< π_{CNode, cols...}
    kJoin,           ///< equi-join on CNode, columns concatenated
    kSelect,         ///< σ_pred(cols, consts)
    kAntiJoin,       ///< node-level difference (right side has 0 columns)
    kUnion,
    kIntersect,
    kDifference,
  };

  Kind kind() const { return kind_; }
  size_t num_cols() const { return num_cols_; }
  const std::string& token() const { return token_; }
  const std::vector<int>& project_cols() const { return project_cols_; }
  const AlgebraPredicateCall& pred() const { return pred_; }
  const FtaExprPtr& child() const { return left_; }
  const FtaExprPtr& left() const { return left_; }
  const FtaExprPtr& right() const { return right_; }

  /// Single-line plan rendering, e.g. "project[0](select[distance(0,1,5)]
  /// (join(scan('a'),scan('b'))))".
  std::string ToString() const;

  // Factories. Schema errors (bad columns, mismatched set-op schemas) are
  // reported eagerly.
  static FtaExprPtr SearchContext();
  static FtaExprPtr HasPos();
  static FtaExprPtr Token(std::string token);
  static StatusOr<FtaExprPtr> Project(FtaExprPtr in, std::vector<int> cols);
  static FtaExprPtr Join(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> AntiJoin(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Select(FtaExprPtr in, AlgebraPredicateCall call);
  static StatusOr<FtaExprPtr> Union(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Intersect(FtaExprPtr l, FtaExprPtr r);
  static StatusOr<FtaExprPtr> Difference(FtaExprPtr l, FtaExprPtr r);

 private:
  FtaExpr() = default;

  Kind kind_;
  size_t num_cols_ = 0;
  std::string token_;
  std::vector<int> project_cols_;
  AlgebraPredicateCall pred_;
  FtaExprPtr left_, right_;
};

/// The list reads of `plan`'s scan leaves (kToken and kHasPos nodes), for
/// the per-query cache decision (ExecContext::BlockCacheFor).
LeafReads PlanLeafReads(const FtaExprPtr& plan);

/// True when a selection of `plan` has a predicate that reads sentence or
/// paragraph (PositionPredicate::reads_structure): its scans then fill
/// them from the index's run table.
bool PlanReadsStructure(const FtaExprPtr& plan);

/// Bottom-up materialized evaluation (the COMP strategy, Section 5.4).
/// `model` (nullable) supplies the Section 3 score transformations;
/// `counters` (nullable) accumulates list and tuple traffic. `cache`
/// (nullable) is shared by every leaf scan of the evaluation, so a token
/// occurring more than once in the plan bulk-decodes its blocks once.
/// `deadline` (nullable) is checked once per operator application:
/// materialized evaluation is the one strategy whose intermediates can
/// explode (the per-node cartesian products), so an expired query stops at
/// the next operator instead of materializing another relation. `tombstones`
/// (nullable) filters deleted nodes out of every leaf scan — including the
/// SearchContext universe — when `index` is one segment of a snapshot.
/// The leaf scans fill sentence and paragraph when PlanReadsStructure.
StatusOr<FtRelation> EvaluateFta(const FtaExprPtr& expr, const InvertedIndex& index,
                                 const AlgebraScoreModel* model,
                                 EvalCounters* counters,
                                 DecodedBlockCache* cache = nullptr,
                                 const Deadline* deadline = nullptr,
                                 const TombstoneSet* tombstones = nullptr);

}  // namespace fts

#endif  // FTS_ALGEBRA_FTA_H_

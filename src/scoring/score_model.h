// Scoring framework of paper Section 3: per-tuple scores plus per-operator
// scoring transformations. The framework "does not mandate a fixed scoring
// method"; AlgebraScoreModel is the extension point, with two shipped
// implementations:
//
//   TfIdfScoreModel         (Section 3.1, scoring/tfidf.h)
//   ProbabilisticScoreModel (Section 3.2, scoring/probabilistic.h)
//
// The algebra operators (algebra/ops.h) and the pipelined engines consult
// the model at every operator; passing a null model disables scoring
// entirely (all scores 0), which the ablation benchmark uses to measure
// scoring overhead.

#ifndef FTS_SCORING_SCORE_MODEL_H_
#define FTS_SCORING_SCORE_MODEL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "index/inverted_index.h"
#include "predicates/predicate.h"
#include "text/document.h"

namespace fts {

/// Per-operator score transformations (paper Section 3). All methods are
/// const and thread-safe; models are constructed per query (they may embed
/// query-level normalization factors).
class AlgebraScoreModel {
 public:
  virtual ~AlgebraScoreModel() = default;

  virtual std::string_view name() const = 0;

  /// Score of one tuple of the leaf relation R_token: one position of
  /// `token` inside `node`. ("The R_t relations contain the static scores",
  /// Section 3.1 — everything here is computable from index statistics.)
  virtual double LeafScore(const InvertedIndex& index, TokenId token,
                           NodeId node) const = 0;

  /// Score of tuples of the HasPos / SearchContext leaves (the ANY token).
  virtual double AnyLeafScore() const = 0;

  /// Node-level score of a whole inverted-list entry (`count` occurrences
  /// of `token` in `node`): the fold of the per-tuple leaf scores under
  /// ProjectCombine. Models override this with a closed form so pipelined
  /// engines score each entry in O(1) (paper Section 5.6.4: "the
  /// computation of scores can be done in constant time").
  virtual double EntryScore(const InvertedIndex& index, TokenId token, NodeId node,
                            size_t count) const {
    if (count == 0) return 0.0;
    const double s = LeafScore(index, token, node);
    double acc = s;
    for (size_t i = 1; i < count; ++i) acc = ProjectCombine(acc, s);
    return acc;
  }

  /// Upper bound on EntryScore(index, token, n, count) over every node n
  /// and every count <= max_tf — the per-block impact bound of block-max
  /// top-k evaluation (max_tf being the block's largest position count,
  /// from the skip directory). Soundness contract: for any node in the
  /// index and any entry in the block, the actual EntryScore, evaluated by
  /// this model with its exact floating-point expressions, must compare <=
  /// to this bound. The base implementation returns +infinity ("cannot
  /// bound"), which disables score-skipping for the list — always sound.
  virtual double EntryScoreUpperBound(const InvertedIndex& index, TokenId token,
                                      uint32_t max_tf) const {
    (void)index;
    (void)token;
    (void)max_tf;
    return std::numeric_limits<double>::infinity();
  }

  /// Join transformation. `group_other1` is the number of join partners the
  /// first tuple has (|R2| restricted to the node, which is the reading of
  /// Section 3.1 under which the join "conserves the total score"), and
  /// symmetrically for `group_other2`.
  virtual double JoinScore(double s1, size_t group_other1, double s2,
                           size_t group_other2) const = 0;

  /// Folds the scores of input tuples that collapse onto the same projected
  /// tuple: returns the combination of accumulated `acc` and `next`.
  virtual double ProjectCombine(double acc, double next) const = 0;

  /// Selection transformation for predicate `pred` on the matched positions.
  virtual double SelectScore(double s, const PositionPredicate& pred,
                             std::span<const PositionInfo> positions,
                             std::span<const int64_t> consts) const = 0;

  /// Union transformation when the same tuple appears in both inputs.
  virtual double UnionBoth(double s1, double s2) const = 0;

  /// Intersection transformation for matching tuples.
  virtual double IntersectScore(double s1, double s2) const = 0;

  /// Difference transformation for surviving (left-only) tuples.
  virtual double DifferenceScore(double s1) const { return s1; }

  /// Negation transformation (Section 3: score := 1 - score).
  virtual double NegateScore(double s) const { return 1.0 - s; }
};

}  // namespace fts

#endif  // FTS_SCORING_SCORE_MODEL_H_

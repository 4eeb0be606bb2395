// Probabilistic relational scoring (paper Section 3.2, after the
// Fuhr–Rölleke probabilistic relational algebra).
//
// Every tuple carries a probability in [0,1]; operators combine them:
//   projection:   1 - Π(1 - s_i)          (noisy-or over collapsing tuples)
//   join:         s1 · s2
//   selection:    s · f(pred)             (f = predicate-specific factor,
//                                          e.g. 1 - |p1-p2|/dist)
//   union:        1 - (1-s1)(1-s2)
//   intersection: s1 · s2
//   difference:   s1 · (1 - s2) — under set semantics the surviving tuples
//                 have s2 = 0, so survivors keep s1
//   negation:     1 - s
//
// Leaf probabilities default to idf(t)/ln(1 + db_size), the paper's
// suggested "IDF/NF" normalization (guaranteed to land in [0,1]).

#ifndef FTS_SCORING_PROBABILISTIC_H_
#define FTS_SCORING_PROBABILISTIC_H_

#include "index/inverted_index.h"
#include "scoring/score_model.h"

namespace fts {

/// Probabilistic score model; corpus-wide (not query-specific). df and
/// db_size come from `stats`, the scoring record of the segment it scores:
/// an index's own (InvertedIndex::scoring_stats()) or the snapshot-global
/// record of one segment of a snapshot (index/index_snapshot.h).
class ProbabilisticScoreModel : public AlgebraScoreModel {
 public:
  explicit ProbabilisticScoreModel(SegmentScoringStats stats);

  std::string_view name() const override { return "probabilistic"; }

  double LeafScore(const InvertedIndex& index, TokenId token,
                   NodeId node) const override;
  double EntryScore(const InvertedIndex& index, TokenId token, NodeId node,
                    size_t count) const override;
  double AnyLeafScore() const override { return 1.0; }
  /// Exact: the leaf probability is node-independent, so the noisy-or at
  /// count = max_tf is the largest EntryScore any entry in the block can
  /// have (1 - pow(1-p, count) is monotone in count for p in [0,1] under
  /// a correctly rounded pow).
  double EntryScoreUpperBound(const InvertedIndex& index, TokenId token,
                              uint32_t max_tf) const override {
    return EntryScore(index, token, /*node=*/0,
                      static_cast<size_t>(max_tf));
  }
  double JoinScore(double s1, size_t, double s2, size_t) const override {
    return s1 * s2;
  }
  double ProjectCombine(double acc, double next) const override {
    return 1.0 - (1.0 - acc) * (1.0 - next);
  }
  double SelectScore(double s, const PositionPredicate& pred,
                     std::span<const PositionInfo> positions,
                     std::span<const int64_t> consts) const override {
    return s * pred.ScoreFactor(positions, consts);
  }
  double UnionBoth(double s1, double s2) const override {
    return 1.0 - (1.0 - s1) * (1.0 - s2);
  }
  double IntersectScore(double s1, double s2) const override { return s1 * s2; }

 private:
  SegmentScoringStats stats_;
  double norm_;  // ln(1 + db_size)
};

}  // namespace fts

#endif  // FTS_SCORING_PROBABILISTIC_H_

// TF-IDF scoring (paper Section 3.1).
//
// Formulae (as in the paper):
//   tf(n,t)  = occurs(n,t) / unique_tokens(n)
//   idf(t)   = ln(1 + db_size / df(t))
//   score(n) = Σ_{t∈q} w(t)·tf(n,t)·idf(t) / (‖n‖₂·‖q‖₂)
//
// with w(t) = idf(t) and ‖q‖₂ = sqrt(Σ_{t∈q} idf(t)²). Each tuple of R_t
// carries the precomputable static score idf(t)²/(unique_tokens·‖n‖₂·‖q‖₂);
// summing it over the occurrences of t in n yields exactly the per-token
// TF-IDF contribution, which is what Theorem 2's conservation argument
// propagates through joins (scores split across the per-node join partners)
// and projections (scores of collapsing tuples add up).

#ifndef FTS_SCORING_TFIDF_H_
#define FTS_SCORING_TFIDF_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"
#include "scoring/score_model.h"

namespace fts {

/// Query-specific TF-IDF score model. Construct once per query with the
/// query's search tokens (duplicates are collapsed).
///
/// Every statistic — df, db_size, node norms and min_uniq_norm — comes from
/// `stats`, the scoring record of the segment `index` is scored as: the
/// index's own (index.scoring_stats()) when it is scored alone, or the
/// snapshot-global record of its segment (index/index_snapshot.h), which
/// keeps every score bit-identical to a single-shot build of the surviving
/// documents. A query token out of `index`'s vocabulary reads its df from
/// stats.df_by_text (0 when that is null). No posting payload is decoded
/// by Idf()/LeafScore(), and DirectNodeScore() seeks entry headers only
/// (never position bytes). `counters` (nullable) is charged for any cursor
/// work the model performs, which lets tests pin those guarantees.
class TfIdfScoreModel : public AlgebraScoreModel {
 public:
  TfIdfScoreModel(const InvertedIndex* index, SegmentScoringStats stats,
                  std::vector<std::string> query_tokens,
                  EvalCounters* counters = nullptr);

  std::string_view name() const override { return "tfidf"; }

  double LeafScore(const InvertedIndex& index, TokenId token,
                   NodeId node) const override;
  double EntryScore(const InvertedIndex& index, TokenId token, NodeId node,
                    size_t count) const override {
    return LeafScore(index, token, node) * static_cast<double>(count);
  }
  double AnyLeafScore() const override { return 0.0; }
  /// idf²/(min_uniq_norm·‖q‖₂)·max_tf: LeafScore with the smallest
  /// denominator any node can present, times the block's largest
  /// occurrence count. Sound under IEEE rounding because min_uniq_norm is
  /// the exact minimum of the uniq·norm products LeafScore divides by and
  /// correctly rounded ops are monotone.
  double EntryScoreUpperBound(const InvertedIndex& index, TokenId token,
                              uint32_t max_tf) const override;
  double JoinScore(double s1, size_t group_other1, double s2,
                   size_t group_other2) const override {
    // Section 3.1: t3.score = t1.score/|R2| + t2.score/|R1|, with the
    // cardinalities read per node so the join conserves total score.
    return s1 / static_cast<double>(group_other1) +
           s2 / static_cast<double>(group_other2);
  }
  double ProjectCombine(double acc, double next) const override { return acc + next; }
  double SelectScore(double s, const PositionPredicate&,
                     std::span<const PositionInfo>,
                     std::span<const int64_t>) const override {
    return s;  // Section 3.1: selection keeps scores
  }
  double UnionBoth(double s1, double s2) const override { return s1 + s2; }
  double IntersectScore(double s1, double s2) const override {
    return std::min(s1, s2);
  }

  /// idf of a token under this model's corpus (0 for out-of-vocabulary).
  double Idf(const std::string& token) const;

  /// The classical cosine TF-IDF score of `node` against this model's query
  /// tokens, computed directly from index statistics (the reference value
  /// in Theorem 2's statement).
  double DirectNodeScore(NodeId node) const;

 private:
  /// The query token's idf when `token` is one, else the record's.
  double TokenIdf(TokenId token) const;

  const InvertedIndex* index_;
  SegmentScoringStats stats_;
  EvalCounters* counters_;                      // nullable
  std::vector<std::string> query_tokens_;       // distinct
  std::unordered_map<std::string, double> idf_;  // per distinct query token
  std::unordered_map<TokenId, double> idf_by_id_;
  double query_norm_ = 1.0;
};

}  // namespace fts

#endif  // FTS_SCORING_TFIDF_H_

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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/inverted_index.h"
#include "predicates/predicate.h"
#include "text/document.h"

namespace fts {

// ---------------------------------------------------------------------------
// The TF-IDF node norm (paper Section 3.1) as an exact sum.
//
// ||n||_2 = sqrt(sum_t (tf(n,t) * idf(t))^2) with tf(n,t) =
// pos_count(n,t) / unique_tokens(n). The divisor is common to every term,
// so ||n||_2 = sqrt(sum_t pos_count(n,t)^2 * idf(t)^2) / unique_tokens(n),
// and that is how a norm is computed:
//   - each (node, token) entry contributes NormTerm(pos_count, weight),
//     where weight = NormWeight(idf) is idf^2 (the double idf * idf)
//     rounded to nearest on the 2^-kNormFractionBits grid, and the term is
//     the exact integer product pos_count^2 * weight;
//   - a node's terms add up exactly, in a NormSum;
//   - NodeNorm(sum, unique_tokens) is the norm: sum, rounded once to a
//     double and scaled by 2^-kNormFractionBits, then the square root,
//     divided by max(1, unique_tokens).
//
// Why: every term is rounded on its own, before the sum, and integer
// addition is associative, so a norm does not depend on the order its
// terms are added in. A segment, a merge, a shard under the global df, a
// corpus interned in another token order and a pass split across any
// number of workers all produce the same bits as a single-shot build of
// the same live documents, by construction rather than by sharing one
// summation order. The grid keeps ~52 significant bits of any idf^2 >=
// (ln 2)^2, the smallest idf of a token with a live occurrence.
//
// Overflow bound: idf = ln(1 + live_nodes / df) <= ln(1 + 2^64) < 44.4, so
// idf^2 < 2^kIdfSquaredBits and a weight < 2^(kIdfSquaredBits +
// kNormFractionBits). A node's position counts sum to its IL_ANY entry's
// count, a uint32, so its sum of pos_count^2 is below 2^64 and its NormSum
// below 2^(64 + kIdfSquaredBits + kNormFractionBits) <= 2^128. (A crafted
// file whose counts break the bound wraps the unsigned sum into a wrong
// norm; it cannot cause undefined behaviour.)
// ---------------------------------------------------------------------------

/// The exact accumulator of a node's norm terms.
using NormSum = unsigned __int128;

/// Fraction bits of the fixed-point idf^2 weights.
inline constexpr int kNormFractionBits = 52;

/// idf^2 < 2^kIdfSquaredBits for every idf Idf can return.
inline constexpr int kIdfSquaredBits = 11;

static_assert(64 + kIdfSquaredBits + kNormFractionBits <= 128,
              "a node's norm sum must fit its accumulator");

/// idf^2 on the 2^-kNormFractionBits grid: idf * idf * 2^52, rounded to
/// the nearest integer.
inline uint64_t NormWeight(double idf) {
  return static_cast<uint64_t>(std::nearbyint(std::ldexp(idf * idf, kNormFractionBits)));
}

/// One entry's exact contribution to its node's norm sum.
inline NormSum NormTerm(uint32_t pos_count, uint64_t weight) {
  return static_cast<NormSum>(uint64_t{pos_count} * pos_count) * weight;
}

/// The norm of a node whose terms sum to `sum`; the neutral 1.0 when the
/// node has no live term.
inline double NodeNorm(NormSum sum, uint32_t unique_tokens) {
  if (sum == 0) return 1.0;
  return std::sqrt(std::ldexp(static_cast<double>(sum), -kNormFractionBits)) /
         std::max<uint32_t>(1, unique_tokens);
}

/// Which Section 3 scoring method an engine applies (kNone disables
/// scoring entirely).
enum class ScoringKind {
  kNone,
  kTfIdf,
  kProbabilistic,
};

const char* ScoringKindToString(ScoringKind kind);

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

/// Builds the per-query model for `kind` over `index`, scored from
/// `stats` (the segment's scoring record): TfIdfScoreModel over the
/// query's search tokens (duplicates collapse), which `tokens` is called
/// to collect — only for kTfIdf, so unscored queries pay nothing —
/// ProbabilisticScoreModel, or null for kNone.
std::unique_ptr<AlgebraScoreModel> MakeScoreModel(
    ScoringKind kind, const InvertedIndex* index,
    const std::function<std::vector<std::string>()>& tokens,
    const SegmentScoringStats& stats);

}  // namespace fts

#endif  // FTS_SCORING_SCORE_MODEL_H_

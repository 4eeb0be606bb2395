#include "scoring/score_model.h"

#include "scoring/probabilistic.h"
#include "scoring/tfidf.h"

namespace fts {

const char* ScoringKindToString(ScoringKind kind) {
  switch (kind) {
    case ScoringKind::kNone: return "none";
    case ScoringKind::kTfIdf: return "tfidf";
    case ScoringKind::kProbabilistic: return "probabilistic";
  }
  return "?";
}

std::unique_ptr<AlgebraScoreModel> MakeScoreModel(
    ScoringKind kind, const InvertedIndex* index,
    const std::function<std::vector<std::string>()>& tokens,
    const SegmentScoringStats& stats) {
  switch (kind) {
    case ScoringKind::kNone:
      return nullptr;
    case ScoringKind::kTfIdf:
      return std::make_unique<TfIdfScoreModel>(index, stats, tokens());
    case ScoringKind::kProbabilistic:
      return std::make_unique<ProbabilisticScoreModel>(stats);
  }
  return nullptr;
}

}  // namespace fts

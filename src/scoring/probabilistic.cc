#include "scoring/probabilistic.h"

#include <cmath>

namespace fts {

ProbabilisticScoreModel::ProbabilisticScoreModel(SegmentScoringStats stats)
    : stats_(stats) {
  norm_ = std::log(1.0 + static_cast<double>(stats_.live_nodes));
  if (norm_ <= 0) norm_ = 1.0;
}

double ProbabilisticScoreModel::LeafScore(const InvertedIndex&, TokenId token,
                                          NodeId) const {
  return stats_.Idf(stats_.global_df[token]) / norm_;
}

double ProbabilisticScoreModel::EntryScore(const InvertedIndex& index, TokenId token,
                                           NodeId node, size_t count) const {
  // Noisy-or of `count` independent occurrences, in closed form.
  const double p = LeafScore(index, token, node);
  return 1.0 - std::pow(1.0 - p, static_cast<double>(count));
}

}  // namespace fts

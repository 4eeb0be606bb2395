#include "scoring/tfidf.h"

#include <algorithm>
#include <cmath>

#include "index/block_posting_list.h"

namespace fts {

namespace {

/// The one df-by-text rule: an in-vocabulary token reads global_df of its
/// id; any other token reads df_by_text — live elsewhere in the snapshot,
/// it still contributes its idf to the query norm — or 0 when that is null
/// or has no entry.
uint32_t LiveDf(const SegmentScoringStats& stats, TokenId id,
                const std::string& token) {
  if (id != kInvalidToken) return stats.global_df[id];
  if (stats.df_by_text == nullptr) return 0;
  const auto it = stats.df_by_text->find(token);
  return it == stats.df_by_text->end() ? 0 : it->second;
}

}  // namespace

TfIdfScoreModel::TfIdfScoreModel(const InvertedIndex* index,
                                 SegmentScoringStats stats,
                                 std::vector<std::string> query_tokens,
                                 EvalCounters* counters)
    : index_(index), stats_(stats), counters_(counters) {
  std::sort(query_tokens.begin(), query_tokens.end());
  query_tokens.erase(std::unique(query_tokens.begin(), query_tokens.end()),
                     query_tokens.end());
  query_tokens_ = std::move(query_tokens);
  double sum_sq = 0;
  for (const std::string& t : query_tokens_) {
    const TokenId id = index_->LookupToken(t);
    const double idf = stats_.Idf(LiveDf(stats_, id, t));
    idf_[t] = idf;
    if (id != kInvalidToken) idf_by_id_[id] = idf;
    sum_sq += idf * idf;
  }
  query_norm_ = sum_sq > 0 ? std::sqrt(sum_sq) : 1.0;
}

double TfIdfScoreModel::TokenIdf(TokenId token) const {
  // A token scanned by the plan but absent from the query-token list (e.g.
  // synthetic plans in tests) scores with its corpus idf.
  const auto it = idf_by_id_.find(token);
  return it != idf_by_id_.end() ? it->second
                                : stats_.Idf(stats_.global_df[token]);
}

double TfIdfScoreModel::LeafScore(const InvertedIndex& index, TokenId token,
                                  NodeId node) const {
  const double idf = TokenIdf(token);
  const double uniq = std::max<uint32_t>(1, index.unique_tokens(node));
  return idf * idf / (uniq * stats_.norms[node] * query_norm_);
}

double TfIdfScoreModel::EntryScoreUpperBound(const InvertedIndex&,
                                             TokenId token,
                                             uint32_t max_tf) const {
  // The idf LeafScore uses, so the bound and the score agree.
  const double idf = TokenIdf(token);
  if (idf == 0.0) return 0.0;  // the token scores 0 everywhere
  const double min_un = stats_.min_uniq_norm;
  if (!(min_un > 0) || std::isinf(min_un)) {
    return std::numeric_limits<double>::infinity();  // cannot bound
  }
  return idf * idf / (min_un * query_norm_) * static_cast<double>(max_tf);
}

double TfIdfScoreModel::Idf(const std::string& token) const {
  auto it = idf_.find(token);
  if (it != idf_.end()) return it->second;
  return stats_.Idf(LiveDf(stats_, index_->LookupToken(token), token));
}

double TfIdfScoreModel::DirectNodeScore(NodeId node) const {
  double score = 0;
  const double uniq = std::max<uint32_t>(1, index_->unique_tokens(node));
  for (const std::string& t : query_tokens_) {
    const BlockPostingList* list = index_->block_list_for_text(t);
    if (list == nullptr) continue;
    // Skip-seek the entry for `node` (reference computation only; query
    // evaluation itself never random-accesses lists). Only entry headers
    // decode: occurs comes from pos_count, never from position bytes. A
    // first-touch decode failure (lazily loaded index) reads as a missing
    // entry here — acceptable for a test-only reference path; production
    // scoring runs inside engines, which propagate cursor status.
    BlockListCursor cursor(list, counters_);
    if (cursor.SeekEntry(node) != node) continue;
    const double occurs = cursor.pos_count();
    const double idf = Idf(t);
    const double tf = occurs / uniq;
    score += idf /*w(t)*/ * tf * idf;
  }
  return score / (stats_.norms[node] * query_norm_);
}

}  // namespace fts

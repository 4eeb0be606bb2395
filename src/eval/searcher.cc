#include "eval/searcher.h"

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "eval/block_max.h"
#include "eval/planner.h"
#include "scoring/topk.h"

namespace fts {

Searcher::Searcher(std::shared_ptr<const IndexSnapshot> snapshot,
                   SearcherOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {
  const std::vector<SegmentView>& segs = snapshot_->segments();
  std::span<const SegmentScoringStats> stats;
  if (options_.scoring != ScoringKind::kNone) {
    StatusOr<std::span<const SegmentScoringStats>> computed =
        snapshot_->ScoringStats();
    if (computed.ok()) {
      stats = *computed;
    } else {
      stats_status_ = computed.status();
    }
  } else {
    snapshot_->NoteUnscoredReader();
  }
  segments_.reserve(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    segments_.push_back(std::make_unique<SegmentEngines>(
        segs[i],
        i < stats.size() ? stats[i] : segs[i].index->scoring_stats(),
        options_));
  }
}

StatusOr<QueryResult> Searcher::EvaluateSegment(const SegmentEngines& se,
                                                const LangExprPtr& query,
                                                LanguageClass cls,
                                                ExecContext& ctx,
                                                std::string* engine_name) const {
  const Engine* engine = &se.comp_engine;
  switch (cls) {
    case LanguageClass::kBoolNoNeg:
    case LanguageClass::kBool:
      engine = &se.bool_engine;
      break;
    case LanguageClass::kPpred:
      engine = &se.ppred_engine;
      break;
    case LanguageClass::kNpred:
      engine = &se.npred_engine;
      break;
    case LanguageClass::kComp:
      break;
  }
  StatusOr<QueryResult> result = engine->Evaluate(query, ctx);
  if (!result.ok() && result.status().code() == StatusCode::kUnsupported &&
      engine != &se.comp_engine) {
    // A specialized engine declined (e.g. a plan shape it cannot stream);
    // COMP is complete and always applicable. Declining is a function of
    // the query alone, so every segment takes the same fallback and the
    // reported engine stays consistent.
    result = se.comp_engine.Evaluate(query, ctx);
    engine = &se.comp_engine;
  }
  if (engine_name != nullptr) *engine_name = std::string(engine->name());
  return result;
}

StatusOr<RoutedResult> Searcher::Search(std::string_view query,
                                        ExecContext& ctx) const {
  FTS_ASSIGN_OR_RETURN(LangExprPtr parsed,
                       ParseQuery(query, SurfaceLanguage::kComp));
  return SearchParsed(parsed, ctx);
}

StatusOr<RoutedResult> Searcher::SearchParsed(const LangExprPtr& query,
                                              ExecContext& ctx) const {
  if (!query) return Status::InvalidArgument("null query");
  FTS_RETURN_IF_ERROR(stats_status_);
  RoutedResult out;
  out.language_class = ClassifyQuery(query);
  if (segments_.empty()) {
    // Nothing ran, so no engine produced this (empty) result — claiming
    // the classified engine here would be a lie.
    out.engine = "NONE";
    return out;
  }
  if (ctx.top_k() > 0) return SearchTopK(query, ctx, std::move(out));

  for (size_t i = 0; i < segments_.size(); ++i) {
    // An expired deadline must stop the query between segments too —
    // engines check it internally, but a snapshot with many segments
    // would otherwise start (and pay the setup of) every remaining one.
    FTS_RETURN_IF_ERROR(ctx.deadline().Check());
    StatusOr<QueryResult> result =
        EvaluateSegment(*segments_[i], query, out.language_class, ctx,
                        i == 0 ? &out.engine : nullptr);
    FTS_RETURN_IF_ERROR(result.status());

    // Rebase the segment's local ids into the snapshot's global id space
    // and append: bases are disjoint and increasing, so the concatenation
    // of per-segment ascending results is globally ascending.
    QueryResult seg_result = std::move(result).value();
    const NodeId base = snapshot_->segment(i).base;
    out.result.nodes.reserve(out.result.nodes.size() + seg_result.nodes.size());
    for (const NodeId n : seg_result.nodes) {
      out.result.nodes.push_back(base + n);
    }
    out.result.scores.insert(out.result.scores.end(), seg_result.scores.begin(),
                             seg_result.scores.end());
    out.result.counters.MergeFrom(seg_result.counters);
  }
  return out;
}

StatusOr<RoutedResult> Searcher::SearchTopK(const LangExprPtr& query,
                                            ExecContext& ctx,
                                            RoutedResult out) const {
  const size_t k = ctx.top_k();
  const LangExprPtr normalized = NormalizeSurface(query);
  // Block-max applies to scored pure token/AND/OR trees; kSequential is
  // the paper-faithful access model, so it always evaluates fully (exact
  // operation counts), mirroring how it bypasses seek planning.
  const bool block_max_eligible = options_.scoring != ScoringKind::kNone &&
                                  options_.mode != CursorMode::kSequential &&
                                  BlockMaxSupports(normalized);

  // One accumulator across all segments: candidates arrive in ascending
  // global id order (per-segment ascending, bases increasing), so the heap
  // evolves exactly as TopK over the concatenated full results would.
  TopKAccumulator acc(k);
  for (size_t i = 0; i < segments_.size(); ++i) {
    FTS_RETURN_IF_ERROR(ctx.deadline().Check());
    const SegmentEngines& se = *segments_[i];
    const InvertedIndex& index = *snapshot_->segment(i).index;
    const NodeId base = snapshot_->segment(i).base;

    bool use_block_max = block_max_eligible;
    if (use_block_max && options_.mode == CursorMode::kAdaptive) {
      use_block_max = PlanBlockMax(k, EstimateCandidates(normalized, index));
    }

    if (use_block_max) {
      // The exact model a full BOOL evaluation of this segment would use:
      // same query tokens, same scoring record — so block-max
      // scores (and the bounds derived from them) are bit-identical and
      // comparable across segments.
      const std::unique_ptr<AlgebraScoreModel> model = MakeScoreModel(
          options_.scoring, &index,
          [&] {
            std::vector<std::string> tokens;
            CollectSurfaceTokens(normalized, &tokens);
            return tokens;
          },
          se.runtime.scoring);
      EvalCounters seg_counters;
      FTS_RETURN_IF_ERROR(EvaluateBlockMaxTopK(index, normalized, *model,
                                               se.runtime, ctx, base, acc,
                                               &seg_counters));
      out.result.counters.MergeFrom(seg_counters);
      // Block-max trees are BOOL-class by construction.
      if (i == 0) out.engine = std::string(se.bool_engine.name());
      continue;
    }

    StatusOr<QueryResult> result =
        EvaluateSegment(se, query, out.language_class, ctx,
                        i == 0 ? &out.engine : nullptr);
    FTS_RETURN_IF_ERROR(result.status());
    QueryResult seg_result = std::move(result).value();
    for (size_t j = 0; j < seg_result.nodes.size(); ++j) {
      acc.Add(base + seg_result.nodes[j],
              seg_result.scores.empty() ? 0.0 : seg_result.scores[j]);
    }
    out.result.counters.MergeFrom(seg_result.counters);
  }

  std::vector<ScoredNode> top = acc.Take();
  const bool scored = options_.scoring != ScoringKind::kNone;
  out.result.nodes.reserve(top.size());
  if (scored) out.result.scores.reserve(top.size());
  for (const ScoredNode& s : top) {
    out.result.nodes.push_back(s.node);
    if (scored) out.result.scores.push_back(s.score);
  }
  return out;
}

}  // namespace fts

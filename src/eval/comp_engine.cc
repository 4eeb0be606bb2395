#include "eval/comp_engine.h"

#include <memory>
#include <set>
#include <string>

#include "algebra/fta.h"
#include "calculus/analysis.h"
#include "compile/ftc_to_fta.h"
#include "index/decoded_block_cache.h"
#include "lang/translate.h"

namespace fts {

StatusOr<QueryResult> CompEngine::Evaluate(const LangExprPtr& query,
                                           ExecContext& ctx) const {
  if (!query) return Status::InvalidArgument("null query");
  FTS_RETURN_IF_ERROR(ctx.deadline().Check());
  FTS_ASSIGN_OR_RETURN(CalcQuery calc, TranslateToCalculus(query));
  FTS_ASSIGN_OR_RETURN(FtaExprPtr plan, CompileQuery(calc));

  const std::unique_ptr<AlgebraScoreModel> model = MakeScoreModel(
      scoring_, index_,
      [&] {
        const std::set<std::string> tokens = CollectTokens(calc.expr);
        return std::vector<std::string>(tokens.begin(), tokens.end());
      },
      segment_.scoring);

  QueryResult result;
  DecodedBlockCache* cache_ptr = ctx.BlockCacheFor(*index_, PlanLeafReads(plan));
  FTS_ASSIGN_OR_RETURN(
      FtRelation rel,
      EvaluateFta(plan, *index_, model.get(), &result.counters, cache_ptr,
                  &ctx.deadline(), segment_.tombstones));
  result.nodes.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    result.nodes.push_back(rel.tuple(i).node);
    if (scoring_ != ScoringKind::kNone) result.scores.push_back(rel.tuple(i).score);
  }
  ctx.counters().MergeFrom(result.counters);
  return result;
}

}  // namespace fts

#include "eval/ppred_engine.h"

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "calculus/analysis.h"
#include "compile/ftc_to_fta.h"
#include "eval/pair_plan.h"
#include "eval/planner.h"
#include "eval/pos_cursor.h"
#include "index/decoded_block_cache.h"
#include "lang/translate.h"

namespace fts {

StatusOr<QueryResult> PpredEngine::Evaluate(const LangExprPtr& query,
                                            ExecContext& ectx) const {
  if (!query) return Status::InvalidArgument("null query");
  FTS_RETURN_IF_ERROR(ectx.deadline().Check());
  FTS_ASSIGN_OR_RETURN(CalcQuery calc, TranslateToCalculus(NormalizeSurface(query)));
  FTS_ASSIGN_OR_RETURN(FtaExprPtr plan, CompileQuery(calc));

  // PPRED additionally requires every selection predicate to be positive;
  // negative predicates belong to NPRED (Section 5.6).
  std::function<Status(const FtaExprPtr&)> check = [&](const FtaExprPtr& p) -> Status {
    if (!p) return Status::OK();
    if (p->kind() == FtaExpr::Kind::kSelect &&
        p->pred().pred->cls() != PredicateClass::kPositive) {
      return Status::Unsupported("PPRED cannot evaluate predicate '" +
                                 std::string(p->pred().pred->name()) + "'");
    }
    FTS_RETURN_IF_ERROR(check(p->left()));
    return check(p->right());
  };
  FTS_RETURN_IF_ERROR(check(plan));

  const std::unique_ptr<AlgebraScoreModel> model = MakeScoreModel(
      scoring_, index_,
      [&] {
        const std::set<std::string> tokens = CollectTokens(calc.expr);
        return std::vector<std::string>(tokens.begin(), tokens.end());
      },
      segment_.scoring);
  return EvaluateSinglePass(plan, index_, model.get(), mode_, pair_routing_,
                            segment_, /*orderings_run=*/0, ectx);
}

StatusOr<QueryResult> EvaluateSinglePass(
    const FtaExprPtr& plan, const InvertedIndex* index,
    const AlgebraScoreModel* model, CursorMode mode, PairRouting routing,
    const SegmentRuntime& segment, uint64_t orderings_run, ExecContext& ectx) {
  QueryResult result;
  // Multi-index planning: a phrase/NEAR-shaped plan may be answerable from
  // one auxiliary pair list instead of the position pipeline.
  FTS_ASSIGN_OR_RETURN(const bool routed,
                       TryEvaluatePairPlan(plan, *index, model, mode, routing,
                                           segment.tombstones, ectx, &result));
  if (!routed) {
    DecodedBlockCache* cache = ectx.BlockCacheFor(*index, PlanLeafReads(plan));
    FTS_RETURN_IF_ERROR(RunPipeline(
        plan,
        {.index = index,
         .model = model,
         .counters = &result.counters,
         .mode = PlanPipelineCursorMode(mode, plan, *index),
         .cache = cache,
         .deadline = &ectx.deadline(),
         .tombstones = segment.tombstones},
        &result.nodes, &result.scores));
  }
  result.counters.orderings_run = orderings_run;
  ectx.counters().MergeFrom(result.counters);
  return result;
}

}  // namespace fts

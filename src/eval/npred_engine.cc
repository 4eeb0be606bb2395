#include "eval/npred_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "calculus/analysis.h"
#include "compile/ftc_to_fta.h"
#include "eval/planner.h"
#include "eval/pos_cursor.h"
#include "eval/ppred_engine.h"
#include "index/decoded_block_cache.h"
#include "lang/translate.h"

namespace fts {

namespace {

/// Collects, in first-occurrence order, the distinct variables used by
/// negative predicates (and, for the total-order mode, all quantified
/// variables).
void CollectVars(const CalcExprPtr& e, bool all_quantified,
                 std::vector<VarId>* out) {
  if (!e) return;
  auto add = [out](VarId v) {
    if (std::find(out->begin(), out->end(), v) == out->end()) out->push_back(v);
  };
  switch (e->kind()) {
    case CalcExpr::Kind::kHasPos:
    case CalcExpr::Kind::kHasToken:
      return;
    case CalcExpr::Kind::kPred:
      if (!all_quantified &&
          e->pred().pred->cls() == PredicateClass::kNegative) {
        for (VarId v : e->pred().vars) add(v);
      }
      return;
    case CalcExpr::Kind::kNot:
      CollectVars(e->child(), all_quantified, out);
      return;
    case CalcExpr::Kind::kAnd:
    case CalcExpr::Kind::kOr:
      CollectVars(e->left(), all_quantified, out);
      CollectVars(e->right(), all_quantified, out);
      return;
    case CalcExpr::Kind::kExists:
    case CalcExpr::Kind::kForAll:
      if (all_quantified) add(e->var());
      CollectVars(e->child(), all_quantified, out);
      return;
  }
}

/// Rank-aware view of a negative predicate for one evaluation thread: the
/// "largest" argument is the maximal offset with ties broken by the
/// thread's ordering permutation. Ties occur when two variables scan the
/// same token list; breaking them against the permutation would make the
/// thread skip solutions.
class RankedNegativePredicate : public PositionPredicate {
 public:
  RankedNegativePredicate(const PositionPredicate* inner, std::vector<size_t> ranks)
      : inner_(inner), ranks_(std::move(ranks)) {}

  std::string_view name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }
  int num_constants() const override { return inner_->num_constants(); }
  PredicateClass cls() const override { return inner_->cls(); }

  bool Eval(std::span<const PositionInfo> positions,
            std::span<const int64_t> consts) const override {
    return inner_->Eval(positions, consts);
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> positions,
                                 std::span<const int64_t> consts,
                                 size_t largest) const override {
    return inner_->NegativeAdvanceTarget(positions, consts, largest);
  }

  double ScoreFactor(std::span<const PositionInfo> positions,
                     std::span<const int64_t> consts) const override {
    return inner_->ScoreFactor(positions, consts);
  }

  size_t LargestArgument(std::span<const PositionInfo> positions) const override {
    size_t mx = 0;
    for (size_t i = 1; i < positions.size(); ++i) {
      if (positions[i].offset > positions[mx].offset ||
          (positions[i].offset == positions[mx].offset &&
           ranks_[i] > ranks_[mx])) {
        mx = i;
      }
    }
    return mx;
  }

 private:
  const PositionPredicate* inner_;
  std::vector<size_t> ranks_;  // thread rank of each argument
};

/// Rewrites every negative-predicate atom P(v...) into
/// le(v_a, v_b) ∧ ... ∧ P(v...), where the le chain spells out the thread's
/// ordering restricted to P's variables, and replaces P with its
/// rank-aware view. The compiler stacks positive selections beneath
/// negative ones, so each negative selection only ever sees
/// ordering-consistent tuples (Algorithm 6's invariant). Adapter objects
/// are appended to `adapters` and must outlive the compiled plan.
CalcExprPtr InsertOrderingConstraints(
    const CalcExprPtr& e, const std::map<VarId, size_t>& rank,
    const PositionPredicate* le,
    std::vector<std::shared_ptr<const PositionPredicate>>* adapters) {
  if (!e) return e;
  switch (e->kind()) {
    case CalcExpr::Kind::kHasPos:
    case CalcExpr::Kind::kHasToken:
      return e;
    case CalcExpr::Kind::kPred: {
      if (e->pred().pred->cls() != PredicateClass::kNegative) return e;
      // Distinct variables of this predicate, sorted by thread rank.
      std::vector<VarId> vars;
      for (VarId v : e->pred().vars) {
        if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
      }
      std::sort(vars.begin(), vars.end(), [&rank](VarId a, VarId b) {
        return rank.at(a) < rank.at(b);
      });
      // Rank-aware replacement of the predicate itself.
      std::vector<size_t> arg_ranks;
      arg_ranks.reserve(e->pred().vars.size());
      for (VarId v : e->pred().vars) arg_ranks.push_back(rank.at(v));
      auto adapter = std::make_shared<RankedNegativePredicate>(e->pred().pred,
                                                               std::move(arg_ranks));
      adapters->push_back(adapter);
      CalcExprPtr out =
          CalcExpr::Pred(adapter.get(), e->pred().vars, e->pred().consts);
      for (size_t i = 1; i < vars.size(); ++i) {
        out = CalcExpr::And(CalcExpr::Pred(le, {vars[i - 1], vars[i]}, {}),
                            std::move(out));
      }
      return out;
    }
    case CalcExpr::Kind::kNot:
      return CalcExpr::Not(InsertOrderingConstraints(e->child(), rank, le, adapters));
    case CalcExpr::Kind::kAnd:
      return CalcExpr::And(InsertOrderingConstraints(e->left(), rank, le, adapters),
                           InsertOrderingConstraints(e->right(), rank, le, adapters));
    case CalcExpr::Kind::kOr:
      return CalcExpr::Or(InsertOrderingConstraints(e->left(), rank, le, adapters),
                          InsertOrderingConstraints(e->right(), rank, le, adapters));
    case CalcExpr::Kind::kExists:
      return CalcExpr::Exists(e->var(),
                              InsertOrderingConstraints(e->child(), rank, le, adapters));
    case CalcExpr::Kind::kForAll:
      return CalcExpr::ForAll(e->var(),
                              InsertOrderingConstraints(e->child(), rank, le, adapters));
  }
  return e;
}

/// True when a negative predicate occurs anywhere under a negation: such
/// queries are outside NPRED (union-over-orderings does not commute with
/// complement) and must run on COMP.
bool HasNegativePredUnderNot(const CalcExprPtr& e, bool under_not) {
  if (!e) return false;
  switch (e->kind()) {
    case CalcExpr::Kind::kHasPos:
    case CalcExpr::Kind::kHasToken:
      return false;
    case CalcExpr::Kind::kPred:
      return under_not && e->pred().pred->cls() == PredicateClass::kNegative;
    case CalcExpr::Kind::kNot:
      return HasNegativePredUnderNot(e->child(), true);
    case CalcExpr::Kind::kAnd:
    case CalcExpr::Kind::kOr:
      return HasNegativePredUnderNot(e->left(), under_not) ||
             HasNegativePredUnderNot(e->right(), under_not);
    case CalcExpr::Kind::kExists:
    case CalcExpr::Kind::kForAll:
      return HasNegativePredUnderNot(e->child(), under_not);
  }
  return false;
}

}  // namespace

StatusOr<QueryResult> NpredEngine::Evaluate(const LangExprPtr& query,
                                            ExecContext& ectx) const {
  if (!query) return Status::InvalidArgument("null query");
  FTS_RETURN_IF_ERROR(ectx.deadline().Check());
  FTS_ASSIGN_OR_RETURN(CalcQuery calc, TranslateToCalculus(NormalizeSurface(query)));
  calc.expr = DesugarForAll(calc.expr);
  if (HasNegativePredUnderNot(calc.expr, false)) {
    return Status::Unsupported(
        "negative predicates under negation require COMP evaluation");
  }

  const std::unique_ptr<AlgebraScoreModel> model = MakeScoreModel(
      scoring_, index_,
      [&] {
        const std::set<std::string> tokens = CollectTokens(calc.expr);
        return std::vector<std::string>(tokens.begin(), tokens.end());
      },
      segment_.scoring);

  // The variables whose orderings the threads enumerate.
  std::vector<VarId> neg_vars;
  CollectVars(calc.expr, /*all_quantified=*/false, &neg_vars);
  std::vector<VarId> thread_vars;
  if (mode_ == NpredOrderingMode::kAllTotalOrders) {
    CollectVars(calc.expr, /*all_quantified=*/true, &thread_vars);
  } else {
    thread_vars = neg_vars;
  }
  if (thread_vars.size() > 8) {
    return Status::Unsupported("NPRED ordering enumeration over " +
                               std::to_string(thread_vars.size()) +
                               " variables is impractical");
  }

  if (neg_vars.empty()) {
    // No negative predicates: degenerate to PPRED's single pass (pair-index
    // hook included), counted as one ordering.
    FTS_ASSIGN_OR_RETURN(FtaExprPtr plan, CompileQuery(calc));
    return EvaluateSinglePass(plan, index_, model.get(), cursor_mode_,
                              pair_routing_, segment_, /*orderings_run=*/1,
                              ectx);
  }

  // One evaluation thread per ordering permutation; results are unioned.
  // All orderings share the context's L1 cache: each permutation re-scans
  // the same token lists, so every thread after the first finds its hot
  // blocks already decoded.
  const PositionPredicate* le = PredicateRegistry::Default().Find("le");
  const TombstoneSet* tombstones = segment_.tombstones;
  QueryResult result;
  std::map<NodeId, double> merged;
  std::vector<size_t> perm(thread_vars.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end());
  // Smallest result cardinality observed across the orderings already run:
  // every ordering evaluates the same query, so any ordering's result size
  // bounds how selective the query really is. Later orderings hand it to
  // the adaptive planner as a measured driver candidate — real feedback
  // where the first ordering had only static dfs.
  uint64_t observed = kNoObservedCardinality;
  do {
    // Long ordering enumerations are exactly where a deadline matters:
    // check between permutations so an expired query stops at an ordering
    // boundary.
    FTS_RETURN_IF_ERROR(ectx.deadline().Check());
    std::map<VarId, size_t> rank;
    for (size_t i = 0; i < perm.size(); ++i) rank[thread_vars[perm[i]]] = i;
    // Variables outside the thread set (partial-order mode) never appear in
    // negative predicates, so InsertOrderingConstraints never ranks them.
    std::vector<std::shared_ptr<const PositionPredicate>> adapters;
    CalcQuery threaded{InsertOrderingConstraints(calc.expr, rank, le, &adapters)};
    FTS_ASSIGN_OR_RETURN(FtaExprPtr plan, CompileQuery(threaded));
    // Rescanning is guaranteed by the ordering loop itself, so the cache
    // attaches whenever the plan's working set fits it.
    LeafReads reads = PlanLeafReads(plan);
    reads.rerun = true;
    DecodedBlockCache* cache = ectx.BlockCacheFor(*index_, std::move(reads));
    // Per-ordering counters, merged below: the ordering loop aggregates
    // through EvalCounters::MergeFrom like every other multi-pass consumer
    // instead of sharing one struct across passes.
    EvalCounters ordering_counters;
    std::vector<NodeId> nodes;
    std::vector<double> scores;
    FTS_RETURN_IF_ERROR(RunPipeline(
        plan,
        {.index = index_,
         .model = model.get(),
         .counters = &ordering_counters,
         .mode = PlanPipelineCursorMode(cursor_mode_, plan, *index_, observed),
         .cache = cache,
         .deadline = &ectx.deadline(),
         .tombstones = tombstones},
        &nodes, &scores));
    result.counters.MergeFrom(ordering_counters);
    observed = std::min(observed, static_cast<uint64_t>(nodes.size()));
    for (size_t i = 0; i < nodes.size(); ++i) {
      merged.emplace(nodes[i], scoring_ != ScoringKind::kNone ? scores[i] : 0.0);
    }
    ++result.counters.orderings_run;
  } while (std::next_permutation(perm.begin(), perm.end()));

  result.nodes.reserve(merged.size());
  for (const auto& [node, score] : merged) {
    result.nodes.push_back(node);
    if (scoring_ != ScoringKind::kNone) result.scores.push_back(score);
  }
  ectx.counters().MergeFrom(result.counters);
  return result;
}

}  // namespace fts

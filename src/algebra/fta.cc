#include "algebra/fta.h"

#include <algorithm>

#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"

namespace fts {

// FtaExpr has a private constructor; the member factories below are the
// only allocation points.

FtaExprPtr FtaExpr::SearchContext() {
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kSearchContext;
  e->num_cols_ = 0;
  return e;
}

FtaExprPtr FtaExpr::HasPos() {
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kHasPos;
  e->num_cols_ = 1;
  return e;
}

FtaExprPtr FtaExpr::Token(std::string token) {
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kToken;
  e->num_cols_ = 1;
  e->token_ = std::move(token);
  return e;
}

StatusOr<FtaExprPtr> FtaExpr::Project(FtaExprPtr in, std::vector<int> cols) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= in->num_cols()) {
      return Status::InvalidArgument("project column " + std::to_string(c) +
                                     " out of range (input has " +
                                     std::to_string(in->num_cols()) + ")");
    }
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kProject;
  e->num_cols_ = cols.size();
  e->project_cols_ = std::move(cols);
  e->left_ = std::move(in);
  return FtaExprPtr(e);
}

FtaExprPtr FtaExpr::Join(FtaExprPtr l, FtaExprPtr r) {
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kJoin;
  e->num_cols_ = l->num_cols() + r->num_cols();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

StatusOr<FtaExprPtr> FtaExpr::AntiJoin(FtaExprPtr l, FtaExprPtr r) {
  if (r->num_cols() != 0) {
    return Status::InvalidArgument("anti-join right side must have zero columns");
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kAntiJoin;
  e->num_cols_ = l->num_cols();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return FtaExprPtr(e);
}

StatusOr<FtaExprPtr> FtaExpr::Select(FtaExprPtr in, AlgebraPredicateCall call) {
  if (call.pred == nullptr) return Status::InvalidArgument("select with null predicate");
  FTS_RETURN_IF_ERROR(call.pred->ValidateSignature(call.cols.size(), call.consts.size()));
  for (int c : call.cols) {
    if (c < 0 || static_cast<size_t>(c) >= in->num_cols()) {
      return Status::InvalidArgument("select column " + std::to_string(c) +
                                     " out of range");
    }
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kSelect;
  e->num_cols_ = in->num_cols();
  e->pred_ = std::move(call);
  e->left_ = std::move(in);
  return FtaExprPtr(e);
}

StatusOr<FtaExprPtr> FtaExpr::Union(FtaExprPtr l, FtaExprPtr r) {
  if (l->num_cols() != r->num_cols()) {
    return Status::InvalidArgument("union schema mismatch");
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kUnion;
  e->num_cols_ = l->num_cols();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return FtaExprPtr(e);
}

StatusOr<FtaExprPtr> FtaExpr::Intersect(FtaExprPtr l, FtaExprPtr r) {
  if (l->num_cols() != r->num_cols()) {
    return Status::InvalidArgument("intersect schema mismatch");
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kIntersect;
  e->num_cols_ = l->num_cols();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return FtaExprPtr(e);
}

StatusOr<FtaExprPtr> FtaExpr::Difference(FtaExprPtr l, FtaExprPtr r) {
  if (l->num_cols() != r->num_cols()) {
    return Status::InvalidArgument("difference schema mismatch");
  }
  auto e = std::shared_ptr<FtaExpr>(new FtaExpr());
  e->kind_ = Kind::kDifference;
  e->num_cols_ = l->num_cols();
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return FtaExprPtr(e);
}

std::string FtaExpr::ToString() const {
  switch (kind_) {
    case Kind::kSearchContext:
      return "searchcontext";
    case Kind::kHasPos:
      return "haspos";
    case Kind::kToken:
      return "scan('" + token_ + "')";
    case Kind::kProject: {
      std::string out = "project[";
      for (size_t i = 0; i < project_cols_.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(project_cols_[i]);
      }
      return out + "](" + left_->ToString() + ")";
    }
    case Kind::kJoin:
      return "join(" + left_->ToString() + "," + right_->ToString() + ")";
    case Kind::kAntiJoin:
      return "antijoin(" + left_->ToString() + "," + right_->ToString() + ")";
    case Kind::kSelect: {
      std::string out = "select[";
      out += pred_.pred->name();
      out += "(";
      for (size_t i = 0; i < pred_.cols.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(pred_.cols[i]);
      }
      for (int64_t c : pred_.consts) out += ";" + std::to_string(c);
      return out + ")](" + left_->ToString() + ")";
    }
    case Kind::kUnion:
      return "union(" + left_->ToString() + "," + right_->ToString() + ")";
    case Kind::kIntersect:
      return "intersect(" + left_->ToString() + "," + right_->ToString() + ")";
    case Kind::kDifference:
      return "difference(" + left_->ToString() + "," + right_->ToString() + ")";
  }
  return "?";
}

namespace {

void CollectPlanLeafReads(const FtaExprPtr& plan, LeafReads* reads) {
  if (!plan) return;
  if (plan->kind() == FtaExpr::Kind::kToken) {
    reads->tokens.push_back(plan->token());
    return;
  }
  if (plan->kind() == FtaExpr::Kind::kHasPos) {
    ++reads->any_scans;
    return;
  }
  // child() aliases left(), so left+right covers unary nodes too.
  CollectPlanLeafReads(plan->left(), reads);
  CollectPlanLeafReads(plan->right(), reads);
}

}  // namespace

LeafReads PlanLeafReads(const FtaExprPtr& plan) {
  LeafReads reads;
  CollectPlanLeafReads(plan, &reads);
  return reads;
}

StatusOr<FtRelation> EvaluateFta(const FtaExprPtr& expr, const InvertedIndex& index,
                                 const AlgebraScoreModel* model,
                                 EvalCounters* counters,
                                 DecodedBlockCache* cache,
                                 const Deadline* deadline,
                                 const TombstoneSet* tombstones) {
  if (!expr) return Status::InvalidArgument("null algebra expression");
  // One check per operator application: COMP's intermediates are the
  // expensive part, so expiry stops before the next one materializes.
  if (deadline != nullptr && deadline->Expired()) {
    return Status::DeadlineExceeded("query deadline expired (COMP)");
  }
  switch (expr->kind()) {
    case FtaExpr::Kind::kSearchContext:
      return OpScanSearchContext(index, model, counters, tombstones);
    case FtaExpr::Kind::kHasPos:
      return OpScanHasPos(index, model, counters, cache, tombstones);
    case FtaExpr::Kind::kToken:
      return OpScanToken(index, expr->token(), model, counters, cache,
                         tombstones);
    case FtaExpr::Kind::kProject: {
      FTS_ASSIGN_OR_RETURN(FtRelation in,
                           EvaluateFta(expr->child(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpProject(in, expr->project_cols(), model, counters);
    }
    case FtaExpr::Kind::kJoin: {
      FTS_ASSIGN_OR_RETURN(FtRelation l,
                           EvaluateFta(expr->left(), index, model, counters,
                                       cache, deadline, tombstones));
      FTS_ASSIGN_OR_RETURN(FtRelation r,
                           EvaluateFta(expr->right(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpJoin(l, r, model, counters);
    }
    case FtaExpr::Kind::kSelect: {
      FTS_ASSIGN_OR_RETURN(FtRelation in,
                           EvaluateFta(expr->child(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpSelect(in, expr->pred(), model, counters);
    }
    case FtaExpr::Kind::kAntiJoin: {
      FTS_ASSIGN_OR_RETURN(FtRelation l,
                           EvaluateFta(expr->left(), index, model, counters,
                                       cache, deadline, tombstones));
      FTS_ASSIGN_OR_RETURN(FtRelation r,
                           EvaluateFta(expr->right(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpAntiJoin(l, r, model, counters);
    }
    case FtaExpr::Kind::kUnion: {
      FTS_ASSIGN_OR_RETURN(FtRelation l,
                           EvaluateFta(expr->left(), index, model, counters,
                                       cache, deadline, tombstones));
      FTS_ASSIGN_OR_RETURN(FtRelation r,
                           EvaluateFta(expr->right(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpUnion(l, r, model, counters);
    }
    case FtaExpr::Kind::kIntersect: {
      FTS_ASSIGN_OR_RETURN(FtRelation l,
                           EvaluateFta(expr->left(), index, model, counters,
                                       cache, deadline, tombstones));
      FTS_ASSIGN_OR_RETURN(FtRelation r,
                           EvaluateFta(expr->right(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpIntersect(l, r, model, counters);
    }
    case FtaExpr::Kind::kDifference: {
      FTS_ASSIGN_OR_RETURN(FtRelation l,
                           EvaluateFta(expr->left(), index, model, counters,
                                       cache, deadline, tombstones));
      FTS_ASSIGN_OR_RETURN(FtRelation r,
                           EvaluateFta(expr->right(), index, model, counters,
                                       cache, deadline, tombstones));
      return OpDifference(l, r, model, counters);
    }
  }
  return Status::Internal("unreachable algebra kind");
}

}  // namespace fts

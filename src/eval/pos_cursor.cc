#include "eval/pos_cursor.h"

#include <algorithm>
#include <vector>

#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"

namespace fts {

NodeId PosCursor::SeekNode(NodeId target) {
  NodeId n = node();
  if (n != kInvalidNode && n >= target) return n;
  // Before the first AdvanceNode, node() is kInvalidNode: start the cursor.
  // (An exhausted cursor re-advances harmlessly to kInvalidNode.)
  if (n == kInvalidNode) n = AdvanceNode();
  while (n != kInvalidNode && n < target) n = AdvanceNode();
  return n;
}

namespace {

void CountOp(const PipelineContext& ctx) {
  if (ctx.counters) ++ctx.counters->cursor_ops;
}

// ---------------------------------------------------------------------------
// Scan: walk of one inverted list (the leaf of every plan), reading the
// block-resident representation in both modes. Sequential mode steps the
// decoded blocks entry by entry, charging exactly the paper's sequential
// access counts; seek mode additionally serves SeekNode via the skip
// table, decoding only landing blocks.
// ---------------------------------------------------------------------------

class ScanCursor : public PosCursor {
 public:
  ScanCursor(TokenId token, const PipelineContext& ctx)
      : ctx_(ctx),
        cursor_(ctx.index->block_list(token), ctx.counters, ctx.cache,
                ctx.tombstones),
        token_(token) {}

  size_t num_cols() const override { return 1; }
  NodeId node() const override { return node_; }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    node_ = cursor_.NextEntry();
    if (node_ == kInvalidNode) {
      SyncStatus();
      return node_;
    }
    OnEntry();
    return node_;
  }

  NodeId SeekNode(NodeId target) override {
    if (ctx_.mode != CursorMode::kSeek) return PosCursor::SeekNode(target);
    if (node_ != kInvalidNode && node_ >= target) return node_;
    CountOp(ctx_);
    node_ = cursor_.SeekEntry(target);
    if (node_ == kInvalidNode) {
      SyncStatus();
      return node_;
    }
    OnEntry();
    return node_;
  }

  bool AdvancePosition(size_t, uint32_t min_offset) override {
    CountOp(ctx_);
    EnsurePositions();
    while (idx_ < positions_.size() && positions_[idx_].offset < min_offset) {
      ++idx_;
      // Each position is charged once, when it becomes current; running off
      // the end of the entry consumes nothing new.
      if (ctx_.counters && idx_ < positions_.size()) {
        ++ctx_.counters->positions_scanned;
      }
    }
    return idx_ < positions_.size();
  }

  PositionInfo position(size_t) const override {
    EnsurePositions();
    return positions_[idx_];
  }
  double node_score() const override { return score_; }

 private:
  void OnEntry() {
    // The entry's PosList is fetched lazily: nodes skipped over by zig-zag
    // alignment never pay for their position bytes.
    have_positions_ = false;
    idx_ = 0;
    if (ctx_.counters) ++ctx_.counters->positions_scanned;
    score_ = ctx_.model == nullptr
                 ? 0.0
                 : ctx_.model->EntryScore(*ctx_.index, token_, node_,
                                          cursor_.pos_count());
  }

  void EnsurePositions() const {
    if (!have_positions_) {
      positions_ = cursor_.GetPositions();
      have_positions_ = true;
      SyncStatus();
    }
  }

  /// Copies a sticky cursor decode error (first-touch validation failure)
  /// into the pipeline's shared status slot; the scan has already failed
  /// closed by exhausting / returning an empty PosList.
  void SyncStatus() const {
    if (ctx_.status != nullptr && ctx_.status->ok() && !cursor_.status().ok()) {
      *ctx_.status = cursor_.status();
    }
  }

  PipelineContext ctx_;
  mutable BlockListCursor cursor_;
  TokenId token_;
  mutable std::span<const PositionInfo> positions_;
  mutable bool have_positions_ = false;
  size_t idx_ = 0;
  NodeId node_ = kInvalidNode;
  double score_ = 0;
};

// ---------------------------------------------------------------------------
// Join (Algorithm 1): sort-merge on node id; columns are the concatenation
// of both inputs', and position cursors dispatch to the owning input.
// Alignment goes through SeekNode, so in seek mode the lagging side skips
// straight to the leading side's node (zig-zag join) instead of stepping.
// ---------------------------------------------------------------------------

class JoinCursor : public PosCursor {
 public:
  JoinCursor(std::unique_ptr<PosCursor> l, std::unique_ptr<PosCursor> r,
             const PipelineContext& ctx)
      : ctx_(ctx), l_(std::move(l)), r_(std::move(r)), lcols_(l_->num_cols()) {}

  size_t num_cols() const override { return lcols_ + r_->num_cols(); }
  NodeId node() const override { return node_; }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    return Align(l_->AdvanceNode(), r_->AdvanceNode());
  }

  NodeId SeekNode(NodeId target) override {
    if (ctx_.mode != CursorMode::kSeek) return PosCursor::SeekNode(target);
    if (node_ != kInvalidNode && node_ >= target) return node_;
    CountOp(ctx_);
    return Align(l_->SeekNode(target), r_->SeekNode(target));
  }

  bool AdvancePosition(size_t col, uint32_t min_offset) override {
    CountOp(ctx_);
    if (col < lcols_) return l_->AdvancePosition(col, min_offset);
    return r_->AdvancePosition(col - lcols_, min_offset);
  }

  PositionInfo position(size_t col) const override {
    return col < lcols_ ? l_->position(col) : r_->position(col - lcols_);
  }

  double node_score() const override {
    if (ctx_.model == nullptr) return 0.0;
    return ctx_.model->JoinScore(l_->node_score(), 1, r_->node_score(), 1);
  }

 private:
  NodeId Align(NodeId n1, NodeId n2) {
    while (n1 != kInvalidNode && n2 != kInvalidNode && n1 != n2) {
      if (n1 < n2) {
        n1 = l_->SeekNode(n2);
      } else {
        n2 = r_->SeekNode(n1);
      }
    }
    node_ = (n1 == kInvalidNode || n2 == kInvalidNode) ? kInvalidNode : n1;
    return node_;
  }

  PipelineContext ctx_;
  std::unique_ptr<PosCursor> l_, r_;
  size_t lcols_;
  NodeId node_ = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Select (Algorithms 2 and 7): advancePosUntilSat. Positive predicates skip
// via Definition 1 bounds; negative predicates move the cursor holding the
// largest position toward the predicate's satisfaction target.
// ---------------------------------------------------------------------------

class SelectCursor : public PosCursor {
 public:
  SelectCursor(std::unique_ptr<PosCursor> in, AlgebraPredicateCall call,
               const PipelineContext& ctx)
      : ctx_(ctx),
        in_(std::move(in)),
        call_(std::move(call)),
        args_(call_.cols.size()),
        bounds_(call_.cols.size()) {}

  size_t num_cols() const override { return in_->num_cols(); }
  NodeId node() const override { return in_->node(); }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    NodeId n = in_->AdvanceNode();
    while (n != kInvalidNode && !AdvancePosUntilSat()) {
      n = in_->AdvanceNode();
    }
    return n;
  }

  NodeId SeekNode(NodeId target) override {
    if (ctx_.mode != CursorMode::kSeek) return PosCursor::SeekNode(target);
    NodeId n = node();
    if (n != kInvalidNode && n >= target) return n;
    CountOp(ctx_);
    n = in_->SeekNode(target);
    while (n != kInvalidNode && !AdvancePosUntilSat()) {
      n = in_->AdvanceNode();
    }
    return n;
  }

  bool AdvancePosition(size_t col, uint32_t min_offset) override {
    CountOp(ctx_);
    if (!in_->AdvancePosition(col, min_offset)) return false;
    return AdvancePosUntilSat();
  }

  PositionInfo position(size_t col) const override { return in_->position(col); }

  double node_score() const override {
    if (ctx_.model == nullptr) return 0.0;
    // Score the node with the currently matched positions as witnesses.
    std::vector<PositionInfo> args(call_.cols.size());
    for (size_t k = 0; k < call_.cols.size(); ++k) {
      args[k] = in_->position(call_.cols[k]);
    }
    return ctx_.model->SelectScore(in_->node_score(), *call_.pred, args,
                                   call_.consts);
  }

 private:
  void LoadArgs() {
    for (size_t k = 0; k < call_.cols.size(); ++k) {
      args_[k] = in_->position(call_.cols[k]);
    }
  }

  bool AdvancePosUntilSat() {
    while (true) {
      LoadArgs();
      if (ctx_.counters) ++ctx_.counters->predicate_evals;
      if (call_.pred->Eval(args_, call_.consts)) return true;
      if (call_.pred->cls() == PredicateClass::kPositive) {
        call_.pred->AdvanceBounds(args_, call_.consts, bounds_);
        bool progressed = false;
        for (size_t i = 0; i < bounds_.size(); ++i) {
          if (bounds_[i] > args_[i].offset) {
            if (!in_->AdvancePosition(call_.cols[i], bounds_[i])) return false;
            progressed = true;
            break;
          }
        }
        if (!progressed) return false;  // contract violation guard
      } else {
        // Negative predicate (Algorithm 7): move the largest position. The
        // `le` ordering selections beneath keep this thread's permutation
        // invariant re-established after every move.
        const size_t mx = call_.pred->LargestArgument(args_);
        const uint32_t target =
            call_.pred->NegativeAdvanceTarget(args_, call_.consts, mx);
        if (target == kInvalidOffset) return false;
        if (target <= args_[mx].offset) return false;  // contract violation guard
        if (!in_->AdvancePosition(call_.cols[mx], target)) return false;
      }
    }
  }

  PipelineContext ctx_;
  std::unique_ptr<PosCursor> in_;
  AlgebraPredicateCall call_;
  std::vector<PositionInfo> args_;
  std::vector<uint32_t> bounds_;
};

// ---------------------------------------------------------------------------
// Project (Algorithm 3): exposes a subset/permutation of the input columns.
// ---------------------------------------------------------------------------

class ProjectCursor : public PosCursor {
 public:
  ProjectCursor(std::unique_ptr<PosCursor> in, std::vector<int> keep,
                const PipelineContext& ctx)
      : ctx_(ctx), in_(std::move(in)), keep_(std::move(keep)) {}

  size_t num_cols() const override { return keep_.size(); }
  NodeId node() const override { return in_->node(); }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    return in_->AdvanceNode();
  }

  NodeId SeekNode(NodeId target) override {
    if (ctx_.mode != CursorMode::kSeek) return PosCursor::SeekNode(target);
    CountOp(ctx_);
    return in_->SeekNode(target);
  }

  bool AdvancePosition(size_t col, uint32_t min_offset) override {
    CountOp(ctx_);
    return in_->AdvancePosition(keep_[col], min_offset);
  }

  PositionInfo position(size_t col) const override {
    return in_->position(keep_[col]);
  }

  double node_score() const override { return in_->node_score(); }

 private:
  PipelineContext ctx_;
  std::unique_ptr<PosCursor> in_;
  std::vector<int> keep_;
};

// ---------------------------------------------------------------------------
// Union (Algorithm 4): merge on node id; within a shared node the current
// tuple is the lexicographically smaller of the two inputs'.
// ---------------------------------------------------------------------------

class UnionCursor : public PosCursor {
 public:
  UnionCursor(std::unique_ptr<PosCursor> a, std::unique_ptr<PosCursor> b,
              const PipelineContext& ctx)
      : ctx_(ctx), a_(std::move(a)), b_(std::move(b)), cols_(a_->num_cols()) {}

  size_t num_cols() const override { return cols_; }
  NodeId node() const override { return node_; }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    if (!started_) {
      na_ = a_->AdvanceNode();
      nb_ = b_->AdvanceNode();
      started_ = true;
    } else {
      if (a_on_node_) na_ = a_->AdvanceNode();
      if (b_on_node_) nb_ = b_->AdvanceNode();
    }
    node_ = std::min(na_, nb_);  // kInvalidNode is the max NodeId
    a_on_node_ = (na_ == node_) && node_ != kInvalidNode;
    b_on_node_ = (nb_ == node_) && node_ != kInvalidNode;
    a_has_tuple_ = a_on_node_;
    b_has_tuple_ = b_on_node_;
    return node_;
  }

  bool AdvancePosition(size_t col, uint32_t min_offset) override {
    CountOp(ctx_);
    if (a_has_tuple_) a_has_tuple_ = a_->AdvancePosition(col, min_offset);
    if (b_has_tuple_) b_has_tuple_ = b_->AdvancePosition(col, min_offset);
    return a_has_tuple_ || b_has_tuple_;
  }

  PositionInfo position(size_t col) const override {
    return Current()->position(col);
  }

  double node_score() const override {
    if (ctx_.model == nullptr) return 0.0;
    if (a_on_node_ && b_on_node_) {
      return ctx_.model->UnionBoth(a_->node_score(), b_->node_score());
    }
    return a_on_node_ ? a_->node_score() : b_->node_score();
  }

 private:
  // The input holding the current (lexicographically minimal) tuple.
  const PosCursor* Current() const {
    if (a_has_tuple_ && !b_has_tuple_) return a_.get();
    if (b_has_tuple_ && !a_has_tuple_) return b_.get();
    for (size_t c = 0; c < cols_; ++c) {
      const uint32_t ao = a_->position(c).offset;
      const uint32_t bo = b_->position(c).offset;
      if (ao != bo) return ao < bo ? a_.get() : b_.get();
    }
    return a_.get();
  }

  PipelineContext ctx_;
  std::unique_ptr<PosCursor> a_, b_;
  size_t cols_;
  bool started_ = false;
  NodeId na_ = kInvalidNode, nb_ = kInvalidNode;
  bool a_on_node_ = false, b_on_node_ = false;
  bool a_has_tuple_ = false, b_has_tuple_ = false;
  NodeId node_ = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Anti-join (Algorithm 5): nodes of the left input absent from the right.
// ---------------------------------------------------------------------------

class AntiJoinCursor : public PosCursor {
 public:
  AntiJoinCursor(std::unique_ptr<PosCursor> l, std::unique_ptr<PosCursor> r,
                 const PipelineContext& ctx)
      : ctx_(ctx), l_(std::move(l)), r_(std::move(r)) {}

  size_t num_cols() const override { return l_->num_cols(); }
  NodeId node() const override { return l_->node(); }

  NodeId AdvanceNode() override {
    CountOp(ctx_);
    return FilterFrom(l_->AdvanceNode());
  }

  NodeId SeekNode(NodeId target) override {
    if (ctx_.mode != CursorMode::kSeek) return PosCursor::SeekNode(target);
    if (l_->node() != kInvalidNode && l_->node() >= target) return l_->node();
    CountOp(ctx_);
    return FilterFrom(l_->SeekNode(target));
  }

  bool AdvancePosition(size_t col, uint32_t min_offset) override {
    CountOp(ctx_);
    return l_->AdvancePosition(col, min_offset);
  }

  PositionInfo position(size_t col) const override { return l_->position(col); }

  double node_score() const override {
    if (ctx_.model == nullptr) return 0.0;
    return ctx_.model->DifferenceScore(l_->node_score());
  }

 private:
  /// Skips left-side nodes present on the right, starting from left node
  /// `n`. The right side advances through SeekNode, so seek mode skips its
  /// blocks instead of stepping entry by entry.
  NodeId FilterFrom(NodeId n) {
    while (n != kInvalidNode) {
      if (!r_started_) {
        r_->AdvanceNode();
        r_started_ = true;
      }
      if (r_->node() != kInvalidNode && r_->node() < n) r_->SeekNode(n);
      if (r_->node() != n) return n;
      n = l_->AdvanceNode();  // excluded node
    }
    return kInvalidNode;
  }

  PipelineContext ctx_;
  std::unique_ptr<PosCursor> l_, r_;
  bool r_started_ = false;
};

}  // namespace

StatusOr<std::unique_ptr<PosCursor>> BuildPipeline(const FtaExprPtr& plan,
                                                   const PipelineContext& ctx) {
  if (!plan) return Status::InvalidArgument("null plan");
  switch (plan->kind()) {
    case FtaExpr::Kind::kToken: {
      // Both cursor modes read the block-resident list; kSequential simply
      // never calls SeekEntry (ScanCursor::SeekNode steps instead).
      return std::unique_ptr<PosCursor>(
          new ScanCursor(ctx.index->LookupToken(plan->token()), ctx));
    }
    case FtaExpr::Kind::kJoin: {
      FTS_ASSIGN_OR_RETURN(auto l, BuildPipeline(plan->left(), ctx));
      FTS_ASSIGN_OR_RETURN(auto r, BuildPipeline(plan->right(), ctx));
      return std::unique_ptr<PosCursor>(
          new JoinCursor(std::move(l), std::move(r), ctx));
    }
    case FtaExpr::Kind::kSelect: {
      if (plan->pred().pred->cls() == PredicateClass::kGeneral) {
        return Status::Unsupported("predicate '" +
                                   std::string(plan->pred().pred->name()) +
                                   "' is neither positive nor negative");
      }
      FTS_ASSIGN_OR_RETURN(auto in, BuildPipeline(plan->child(), ctx));
      return std::unique_ptr<PosCursor>(
          new SelectCursor(std::move(in), plan->pred(), ctx));
    }
    case FtaExpr::Kind::kProject: {
      FTS_ASSIGN_OR_RETURN(auto in, BuildPipeline(plan->child(), ctx));
      return std::unique_ptr<PosCursor>(
          new ProjectCursor(std::move(in), plan->project_cols(), ctx));
    }
    case FtaExpr::Kind::kUnion: {
      FTS_ASSIGN_OR_RETURN(auto l, BuildPipeline(plan->left(), ctx));
      FTS_ASSIGN_OR_RETURN(auto r, BuildPipeline(plan->right(), ctx));
      return std::unique_ptr<PosCursor>(
          new UnionCursor(std::move(l), std::move(r), ctx));
    }
    case FtaExpr::Kind::kAntiJoin: {
      FTS_ASSIGN_OR_RETURN(auto l, BuildPipeline(plan->left(), ctx));
      FTS_ASSIGN_OR_RETURN(auto r, BuildPipeline(plan->right(), ctx));
      return std::unique_ptr<PosCursor>(
          new AntiJoinCursor(std::move(l), std::move(r), ctx));
    }
    case FtaExpr::Kind::kHasPos:
    case FtaExpr::Kind::kSearchContext:
    case FtaExpr::Kind::kIntersect:
    case FtaExpr::Kind::kDifference:
      return Status::Unsupported("plan node '" + plan->ToString() +
                                 "' requires materialized (COMP) evaluation");
  }
  return Status::Internal("unreachable plan kind");
}

Status RunPipeline(const FtaExprPtr& plan, PipelineContext ctx,
                   std::vector<NodeId>* nodes, std::vector<double>* scores) {
  Status status;
  ctx.status = &status;
  FTS_ASSIGN_OR_RETURN(std::unique_ptr<PosCursor> cursor,
                       BuildPipeline(plan, ctx));
  // Deadline granularity: one clock read per kCheckEvery result nodes (an
  // unset deadline short-circuits to a single branch), so the drain's
  // tight loop stays tight and overruns are bounded.
  constexpr size_t kCheckEvery = 4096;
  size_t until_check = kCheckEvery;
  while (true) {
    const NodeId n = cursor->AdvanceNode();
    if (n == kInvalidNode) return status;
    nodes->push_back(n);
    if (ctx.model != nullptr) scores->push_back(cursor->node_score());
    if (--until_check == 0) {
      until_check = kCheckEvery;
      if (ctx.deadline != nullptr && ctx.deadline->Expired()) {
        if (status.ok()) {
          status = Status::DeadlineExceeded("query deadline expired (pipeline)");
        }
        return status;
      }
    }
  }
}

}  // namespace fts

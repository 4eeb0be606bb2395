#include "eval/bool_engine.h"

#include <algorithm>
#include <bit>

#include "common/varint.h"
#include "eval/planner.h"
#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"
#include "lang/classify.h"

namespace fts {

namespace {

/// A sorted node set with node-level scores.
struct NodeSet {
  std::vector<NodeId> nodes;
  std::vector<double> scores;
};

class BoolEvaluator {
 public:
  BoolEvaluator(const InvertedIndex* index, const AlgebraScoreModel* model,
                EvalCounters* counters, CursorMode mode, DecodedBlockCache* cache,
                const Deadline* deadline, const TombstoneSet* tombstones)
      : index_(index),
        model_(model),
        counters_(counters),
        mode_(mode),
        cache_(cache),
        deadline_(deadline),
        tombstones_(tombstones) {}

  StatusOr<NodeSet> Eval(const LangExprPtr& e) {
    // Per-operator deadline check: a free (unset) deadline costs one
    // branch; overruns are bounded by one operator's merge.
    if (deadline_ != nullptr && deadline_->Expired()) {
      return Status::DeadlineExceeded("query deadline expired (BOOL)");
    }
    switch (e->kind()) {
      case LangExpr::Kind::kToken:
        return EvalToken(e->token());
      case LangExpr::Kind::kAny:
        return EvalAny();
      case LangExpr::Kind::kNot: {
        FTS_ASSIGN_OR_RETURN(NodeSet in, Eval(e->child()));
        return Complement(in);
      }
      case LangExpr::Kind::kAnd: {
        // AND NOT runs as a merge difference without touching IL_ANY.
        if (e->right()->kind() == LangExpr::Kind::kNot &&
            e->left()->kind() != LangExpr::Kind::kNot) {
          FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->left()));
          FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->right()->child()));
          return Difference(l, r);
        }
        if (e->left()->kind() == LangExpr::Kind::kNot &&
            e->right()->kind() != LangExpr::Kind::kNot) {
          FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->right()));
          FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->left()->child()));
          return Difference(l, r);
        }
        if (mode_ != CursorMode::kSequential) {
          // Token operands can intersect by zig-zag seeking over the
          // compressed lists, decoding only landing blocks instead of
          // scanning both lists end to end. kSeek always does; kAdaptive
          // asks the planner per AND operator, using the actual list sizes
          // on each side (df for tokens, cardinality for evaluated sets).
          // Scores are identical to the merge path either way.
          const bool ltok = e->left()->kind() == LangExpr::Kind::kToken;
          const bool rtok = e->right()->kind() == LangExpr::Kind::kToken;
          if (ltok && rtok) {
            if (PlanAndSeek(mode_, TokenDf(e->left()->token()),
                            TokenDf(e->right()->token()))) {
              return ZigZagTokens(e->left()->token(), e->right()->token());
            }
          } else if (rtok) {
            FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->left()));
            if (PlanAndSeek(mode_, l.nodes.size(),
                            TokenDf(e->right()->token()))) {
              return IntersectSetToken(l, e->right()->token(), /*set_on_left=*/true);
            }
            FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->right()));
            return Intersect(l, r);
          } else if (ltok) {
            FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->right()));
            if (PlanAndSeek(mode_, r.nodes.size(),
                            TokenDf(e->left()->token()))) {
              return IntersectSetToken(r, e->left()->token(), /*set_on_left=*/false);
            }
            FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->left()));
            return Intersect(l, r);
          }
        }
        FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->left()));
        FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->right()));
        return Intersect(l, r);
      }
      case LangExpr::Kind::kOr: {
        FTS_ASSIGN_OR_RETURN(NodeSet l, Eval(e->left()));
        FTS_ASSIGN_OR_RETURN(NodeSet r, Eval(e->right()));
        return Union(l, r);
      }
      default:
        return Status::Unsupported(
            "BOOL cannot evaluate position variables or predicates");
    }
  }

 private:
  double TokenEntryScore(TokenId id, NodeId node, size_t pos_count) const {
    return model_ ? model_->EntryScore(*index_, id, node, pos_count) : 0.0;
  }

  uint64_t TokenDf(const std::string& token) const {
    return index_->df(index_->LookupToken(token));
  }

  BlockListCursor Cursor(const BlockPostingList* list) {
    return BlockListCursor(list, counters_, cache_, tombstones_);
  }

  StatusOr<NodeSet> EvalToken(const std::string& token) {
    const TokenId id = index_->LookupToken(token);
    BlockListCursor cursor = Cursor(index_->block_list(id));
    NodeSet out;
    while (cursor.NextEntry() != kInvalidNode) {
      const NodeId n = cursor.current_node();
      out.nodes.push_back(n);
      out.scores.push_back(TokenEntryScore(id, n, cursor.pos_count()));
    }
    // A lazily validated block that fails its first-touch decode exhausts
    // the cursor early and records why; surface that instead of a silently
    // truncated node set.
    FTS_RETURN_IF_ERROR(cursor.status());
    return out;
  }

  StatusOr<NodeSet> EvalAny() {
    BlockListCursor cursor = Cursor(&index_->block_any_list());
    NodeSet out;
    const double s = model_ ? model_->AnyLeafScore() : 0.0;
    while (cursor.NextEntry() != kInvalidNode) {
      out.nodes.push_back(cursor.current_node());
      out.scores.push_back(s);
    }
    FTS_RETURN_IF_ERROR(cursor.status());
    return out;
  }

  /// Word-level intersection of two bitset-encoded blocks: when both
  /// cursors rest in dense blocks, every match in the blocks' id overlap
  /// [max(a,b), min(block maxima)] falls out of AND-ing bitset words —
  /// entry ranks recovered by popcount index the decoded headers for the
  /// exact pos_count JoinScore needs, and tombstones are filtered the same
  /// way the cursor movement primitives would. Both cursors then seek past
  /// the processed range. Returns false (cursors untouched) whenever the
  /// shape does not apply, letting the plain zig-zag step run.
  bool TryDenseBlockAnd(BlockListCursor& lc, BlockListCursor& rc, TokenId lid,
                        TokenId rid, NodeId* a, NodeId* b, NodeSet* out) {
    // Spans are bounded by kDenseSpanFactor * block_size for built blocks;
    // the cap keeps the rank scratch stack-resident and rejects oversized
    // (foreign) blocks rather than ever allocating here.
    constexpr size_t kMaxDenseWords = 64;
    BlockListCursor::DenseBlockView lv, rv;
    if (!lc.CurrentDenseBlock(&lv) || !rc.CurrentDenseBlock(&rv)) return false;
    if (lv.nwords > kMaxDenseWords || rv.nwords > kMaxDenseWords) return false;
    const NodeId lo = std::max(*a, *b);
    const NodeId hi = std::min(lv.max_node, rv.max_node);
    if (lo > hi) return false;  // disjoint blocks: one plain seek handles it
    const auto lentries = lc.block_entries();
    const auto rentries = rc.block_entries();
    uint64_t rwords[kMaxDenseWords];
    uint32_t rcum[kMaxDenseWords + 1];  // set bits before word w
    rcum[0] = 0;
    for (size_t w = 0; w < rv.nwords; ++w) {
      rwords[w] = LoadFixed64Le(rv.words + 8 * w);
      rcum[w + 1] = rcum[w] + static_cast<uint32_t>(std::popcount(rwords[w]));
    }
    const TombstoneSet* ltomb = lc.tombstone_filter();
    const TombstoneSet* rtomb = rc.tombstone_filter();
    if (counters_ != nullptr) ++counters_->bitset_blocks_intersected;
    uint32_t lrank_before = 0;
    for (size_t w = 0; w < lv.nwords; ++w) {
      const uint64_t lword = LoadFixed64Le(lv.words + 8 * w);
      const NodeId wstart = lv.base + static_cast<NodeId>(64 * w);
      if (wstart > hi) break;
      if (wstart + 63 < lo) {
        lrank_before += static_cast<uint32_t>(std::popcount(lword));
        continue;
      }
      uint64_t m = lword;
      if (lo > wstart) m &= ~uint64_t{0} << (lo - wstart);
      if (hi - wstart < 63) m &= (uint64_t{1} << (hi - wstart + 1)) - 1;
      // Gather the right-side bits covering this word's id range: the
      // bitsets' bases differ, so shift-align across the word boundary.
      const int64_t d = static_cast<int64_t>(wstart) - rv.base;
      uint64_t rbits = 0;
      if (d >= 0) {
        const size_t rw = static_cast<size_t>(d) / 64;
        const unsigned sh = static_cast<unsigned>(d) % 64;
        const uint64_t lo_w = rw < rv.nwords ? rwords[rw] : 0;
        const uint64_t hi_w = rw + 1 < rv.nwords ? rwords[rw + 1] : 0;
        rbits = sh == 0 ? lo_w : (lo_w >> sh) | (hi_w << (64 - sh));
      } else if (-d < 64) {
        rbits = rwords[0] << static_cast<unsigned>(-d);
      }
      m &= rbits;
      while (m != 0) {
        const int bit = std::countr_zero(m);
        m &= m - 1;
        const NodeId node = wstart + static_cast<NodeId>(bit);
        if ((ltomb != nullptr && ltomb->Contains(node)) ||
            (rtomb != nullptr && rtomb->Contains(node))) {
          continue;
        }
        const uint32_t lrank =
            lrank_before + static_cast<uint32_t>(std::popcount(
                               lword & ((uint64_t{1} << bit) - 1)));
        const uint64_t rbi = node - rv.base;
        const size_t rw = static_cast<size_t>(rbi) / 64;
        const uint32_t rrank =
            rcum[rw] + static_cast<uint32_t>(std::popcount(
                           rwords[rw] & ((uint64_t{1} << (rbi % 64)) - 1)));
        if (counters_ != nullptr) counters_->entries_scanned += 2;
        out->nodes.push_back(node);
        out->scores.push_back(
            model_ ? model_->JoinScore(
                         TokenEntryScore(lid, node,
                                         lentries[lrank].header.pos_count),
                         1,
                         TokenEntryScore(rid, node,
                                         rentries[rrank].header.pos_count),
                         1)
                   : 0.0);
      }
      lrank_before += static_cast<uint32_t>(std::popcount(lword));
    }
    // Both blocks are fully mined up to `hi`: seek past it. hi + 1 cannot
    // wrap (hi is a real block max_node, strictly below kInvalidNode).
    *a = lc.SeekEntry(hi + 1);
    *b = rc.SeekEntry(hi + 1);
    return true;
  }

  /// AND of two token lists by two-sided zig-zag seek.
  StatusOr<NodeSet> ZigZagTokens(const std::string& ltok, const std::string& rtok) {
    const TokenId lid = index_->LookupToken(ltok);
    const TokenId rid = index_->LookupToken(rtok);
    BlockListCursor lc = Cursor(index_->block_list(lid));
    BlockListCursor rc = Cursor(index_->block_list(rid));
    NodeSet out;
    NodeId a = lc.NextEntry();
    NodeId b = rc.NextEntry();
    while (a != kInvalidNode && b != kInvalidNode) {
      // Two dense blocks intersect at word level and re-enter the loop
      // past them; any other shape falls through to entry zig-zag.
      if (TryDenseBlockAnd(lc, rc, lid, rid, &a, &b, &out)) continue;
      if (a < b) {
        a = lc.SeekEntry(b);
      } else if (b < a) {
        b = rc.SeekEntry(a);
      } else {
        out.nodes.push_back(a);
        out.scores.push_back(
            model_ ? model_->JoinScore(
                         TokenEntryScore(lid, a, lc.pos_count()), 1,
                         TokenEntryScore(rid, b, rc.pos_count()), 1)
                   : 0.0);
        a = lc.NextEntry();
        b = rc.NextEntry();
      }
    }
    FTS_RETURN_IF_ERROR(lc.status());
    FTS_RETURN_IF_ERROR(rc.status());
    return out;
  }

  /// AND of an evaluated node set with a token list: the set drives, the
  /// token cursor seeks. `set_on_left` selects the JoinScore argument order
  /// so scores match the corresponding merge-path Intersect exactly.
  StatusOr<NodeSet> IntersectSetToken(const NodeSet& set, const std::string& tok,
                                      bool set_on_left) {
    const TokenId id = index_->LookupToken(tok);
    BlockListCursor c = Cursor(index_->block_list(id));
    NodeSet out;
    for (size_t i = 0; i < set.nodes.size(); ++i) {
      const NodeId n = c.SeekEntry(set.nodes[i]);
      if (n == kInvalidNode) break;
      if (n != set.nodes[i]) continue;
      out.nodes.push_back(n);
      if (model_ == nullptr) {
        out.scores.push_back(0.0);
        continue;
      }
      const double token_score = TokenEntryScore(id, n, c.pos_count());
      out.scores.push_back(set_on_left
                               ? model_->JoinScore(set.scores[i], 1, token_score, 1)
                               : model_->JoinScore(token_score, 1, set.scores[i], 1));
    }
    FTS_RETURN_IF_ERROR(c.status());
    return out;
  }

  NodeSet Complement(const NodeSet& in) {
    // The complement ranges over every context node, which costs a full
    // IL_ANY scan in the paper's model (Section 5.3). Tombstoned nodes are
    // outside the universe: deleted documents neither match nor complement.
    if (counters_) counters_->entries_scanned += index_->num_nodes();
    NodeSet out;
    size_t j = 0;
    for (NodeId n = 0; n < index_->num_nodes(); ++n) {
      if (tombstones_ != nullptr && tombstones_->Contains(n)) continue;
      while (j < in.nodes.size() && in.nodes[j] < n) ++j;
      if (j < in.nodes.size() && in.nodes[j] == n) continue;
      out.nodes.push_back(n);
      out.scores.push_back(model_ ? model_->NegateScore(0.0) : 0.0);
    }
    return out;
  }

  NodeSet Intersect(const NodeSet& l, const NodeSet& r) {
    NodeSet out;
    size_t i = 0, j = 0;
    while (i < l.nodes.size() && j < r.nodes.size()) {
      if (l.nodes[i] < r.nodes[j]) {
        ++i;
      } else if (r.nodes[j] < l.nodes[i]) {
        ++j;
      } else {
        out.nodes.push_back(l.nodes[i]);
        out.scores.push_back(
            model_ ? model_->JoinScore(l.scores[i], 1, r.scores[j], 1) : 0.0);
        ++i;
        ++j;
      }
    }
    return out;
  }

  NodeSet Union(const NodeSet& l, const NodeSet& r) {
    NodeSet out;
    size_t i = 0, j = 0;
    while (i < l.nodes.size() || j < r.nodes.size()) {
      if (j >= r.nodes.size() || (i < l.nodes.size() && l.nodes[i] < r.nodes[j])) {
        out.nodes.push_back(l.nodes[i]);
        out.scores.push_back(l.scores[i]);
        ++i;
      } else if (i >= l.nodes.size() || r.nodes[j] < l.nodes[i]) {
        out.nodes.push_back(r.nodes[j]);
        out.scores.push_back(r.scores[j]);
        ++j;
      } else {
        out.nodes.push_back(l.nodes[i]);
        out.scores.push_back(
            model_ ? model_->UnionBoth(l.scores[i], r.scores[j]) : 0.0);
        ++i;
        ++j;
      }
    }
    return out;
  }

  NodeSet Difference(const NodeSet& l, const NodeSet& r) {
    NodeSet out;
    size_t j = 0;
    for (size_t i = 0; i < l.nodes.size(); ++i) {
      while (j < r.nodes.size() && r.nodes[j] < l.nodes[i]) ++j;
      if (j < r.nodes.size() && r.nodes[j] == l.nodes[i]) continue;
      out.nodes.push_back(l.nodes[i]);
      out.scores.push_back(model_ ? model_->DifferenceScore(l.scores[i]) : 0.0);
    }
    return out;
  }

  const InvertedIndex* index_;
  const AlgebraScoreModel* model_;
  EvalCounters* counters_;
  CursorMode mode_;
  DecodedBlockCache* cache_;
  const Deadline* deadline_;
  const TombstoneSet* tombstones_;  // nullable; cursors filter deleted nodes
};

/// Collects the query's leaf list reads (token spellings plus ANY scans)
/// for the per-query cache decision (ExecContext::BlockCacheFor).
void CollectBoolLeaves(const LangExprPtr& e, LeafReads* reads) {
  if (!e) return;
  if (e->kind() == LangExpr::Kind::kToken) {
    reads->tokens.push_back(e->token());
    return;
  }
  if (e->kind() == LangExpr::Kind::kAny) {
    ++reads->any_scans;
    return;
  }
  // child() aliases left(), so left+right covers unary nodes too.
  CollectBoolLeaves(e->left(), reads);
  CollectBoolLeaves(e->right(), reads);
}

}  // namespace

StatusOr<QueryResult> BoolEngine::Evaluate(const LangExprPtr& query,
                                           ExecContext& ctx) const {
  if (!query) return Status::InvalidArgument("null query");
  FTS_RETURN_IF_ERROR(ctx.deadline().Check());
  LangExprPtr normalized = NormalizeSurface(query);

  const TombstoneSet* tombstones = segment_.tombstones;
  const std::unique_ptr<AlgebraScoreModel> model = MakeScoreModel(
      scoring_, index_,
      [&] {
        std::vector<std::string> tokens;
        CollectSurfaceTokens(normalized, &tokens);
        return tokens;
      },
      segment_.scoring);

  QueryResult result;
  LeafReads reads;
  CollectBoolLeaves(normalized, &reads);
  DecodedBlockCache* cache = ctx.BlockCacheFor(*index_, std::move(reads));
  BoolEvaluator eval(index_, model.get(), &result.counters, mode_, cache,
                     &ctx.deadline(), tombstones);
  FTS_ASSIGN_OR_RETURN(NodeSet set, eval.Eval(normalized));
  result.nodes = std::move(set.nodes);
  if (scoring_ != ScoringKind::kNone) result.scores = std::move(set.scores);
  ctx.counters().MergeFrom(result.counters);
  return result;
}

}  // namespace fts

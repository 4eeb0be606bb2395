#include "eval/block_max.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"

namespace fts {

bool BlockMaxSupports(const LangExprPtr& normalized) {
  if (!normalized) return false;
  switch (normalized->kind()) {
    case LangExpr::Kind::kToken:
      return true;
    case LangExpr::Kind::kAnd:
    case LangExpr::Kind::kOr:
      return BlockMaxSupports(normalized->left()) &&
             BlockMaxSupports(normalized->right());
    default:
      return false;
  }
}

namespace {

constexpr uint64_t kForever = std::numeric_limits<uint64_t>::max();

/// One token leaf: its cursor (the only thing that decodes blocks), the
/// precomputed per-block impact upper bounds, and the shallow frontier
/// `sb` — the first block whose max_node could reach the current probe.
/// The frontier moves forward without touching compressed bytes; only
/// deep evaluation moves the cursor.
struct BmLeaf {
  BmLeaf(TokenId id_in, const BlockPostingList* list_in, EvalCounters* counters,
         DecodedBlockCache* cache, const TombstoneSet* tombstones)
      : id(id_in), list(list_in),
        cursor(list_in, counters, cache, tombstones) {}

  TokenId id;
  const BlockPostingList* list;  // null for OOV tokens
  BlockListCursor cursor;
  std::vector<double> block_ub;  // per block impact upper bound
  size_t sb = 0;                 // shallow frontier block index

  size_t num_blocks() const { return list ? list->num_blocks() : 0; }
};

/// Flattened expression node; children by index into the tree vector.
struct BmNode {
  LangExpr::Kind kind = LangExpr::Kind::kToken;
  int left = -1;
  int right = -1;
  int leaf = -1;  // index into the leaf vector (kToken only)
};

/// What EvalBound knows about one expression over the id range starting at
/// the probe: either no match exists through `until` (inclusive), or any
/// match in [probe, until] scores at most `ub`.
struct Bound {
  bool absent = false;
  double ub = 0.0;
  uint64_t until = kForever;
};

Bound Absent(uint64_t until) { return Bound{true, 0.0, until}; }
Bound Bounded(double ub, uint64_t until) { return Bound{false, ub, until}; }

class BlockMaxEvaluator {
 public:
  BlockMaxEvaluator(const InvertedIndex& index, const AlgebraScoreModel& model,
                    EvalCounters* counters, DecodedBlockCache* cache,
                    const TombstoneSet* tombstones)
      : index_(index), model_(model), counters_(counters), cache_(cache),
        tombstones_(tombstones) {}

  Status Run(const LangExprPtr& expr, ExecContext& ctx, NodeId base,
             TopKAccumulator& acc) {
    FTS_RETURN_IF_ERROR(ctx.deadline().Check());
    const int root = BuildNode(expr);
    if (root < 0) return Status::Unsupported("block-max: unsupported operator");

    const uint64_t num_nodes = index_.num_nodes();
    uint64_t d = 0;
    uint64_t iter = 0;
    while (d < num_nodes) {
      if ((++iter & 1023u) == 0) FTS_RETURN_IF_ERROR(ctx.deadline().Check());
      const Bound b = EvalBound(root, d);
      if (b.absent) {
        // No match anywhere in [d, until]: hop the whole range. These are
        // structural skips — a zig-zag join makes them too — so they are
        // not charged to blocks_skipped_by_score.
        if (b.until >= num_nodes - 1) break;
        d = b.until + 1;
        continue;
      }
      if (acc.full() && b.ub <= acc.threshold()) {
        // Nothing in [d, until] can beat the heap's weakest entry: a score
        // of exactly threshold() still loses the tie-break (every id in
        // the heap is smaller than d — candidates arrive ascending).
        const uint64_t next =
            b.until >= num_nodes - 1 ? num_nodes : b.until + 1;
        ChargeScoreSkip(next);
        if (next >= num_nodes) break;
        d = next;
        continue;
      }
      double score = 0.0;
      if (DeepEval(root, static_cast<NodeId>(d), &score)) {
        acc.Add(base + static_cast<NodeId>(d), score);
      }
      ++d;
    }
    for (const BmLeaf& leaf : leaves_) {
      FTS_RETURN_IF_ERROR(leaf.cursor.status());
    }
    return Status::OK();
  }

 private:
  /// Builds the flat tree bottom-up; -1 on unsupported operators (callers
  /// gate on BlockMaxSupports, so this is belt and braces).
  int BuildNode(const LangExprPtr& e) {
    switch (e->kind()) {
      case LangExpr::Kind::kToken: {
        const TokenId id = index_.LookupToken(e->token());
        BmNode node;
        node.kind = LangExpr::Kind::kToken;
        node.leaf = static_cast<int>(leaves_.size());
        leaves_.emplace_back(id, index_.block_list(id), counters_, cache_,
                             tombstones_);
        BmLeaf& leaf = leaves_.back();
        if (leaf.list != nullptr) {
          leaf.block_ub.reserve(leaf.list->num_blocks());
          for (const BlockPostingList::SkipEntry& s : leaf.list->skips()) {
            leaf.block_ub.push_back(
                model_.EntryScoreUpperBound(index_, id, s.max_tf));
          }
        }
        tree_.push_back(node);
        return static_cast<int>(tree_.size()) - 1;
      }
      case LangExpr::Kind::kAnd:
      case LangExpr::Kind::kOr: {
        const int l = BuildNode(e->left());
        if (l < 0) return -1;
        const int r = BuildNode(e->right());
        if (r < 0) return -1;
        BmNode node;
        node.kind = e->kind();
        node.left = l;
        node.right = r;
        tree_.push_back(node);
        return static_cast<int>(tree_.size()) - 1;
      }
      default:
        return -1;
    }
  }

  /// Upper-bound combinators. The model's JoinScore/UnionBoth are monotone
  /// in each score argument over the model's score range (sums for TfIdf,
  /// products / noisy-or over [0,1] for probabilistic), so combining upper
  /// bounds yields an upper bound. +inf (a model that cannot bound a list)
  /// must be propagated without calling the model: the probabilistic
  /// expressions multiply, and inf * 0 is NaN.
  double CombineAnd(double l, double r) const {
    if (std::isinf(l) || std::isinf(r)) {
      return std::numeric_limits<double>::infinity();
    }
    return model_.JoinScore(l, 1, r, 1);
  }
  double CombineOr(double l, double r) const {
    if (std::isinf(l) || std::isinf(r)) {
      return std::numeric_limits<double>::infinity();
    }
    return model_.UnionBoth(l, r);
  }

  /// Advances the shallow frontier to the first block whose max_node can
  /// reach `d`. Monotone and decode-free.
  static void ShallowSeek(BmLeaf& leaf, uint64_t d) {
    const size_t nb = leaf.num_blocks();
    while (leaf.sb < nb && leaf.list->skip(leaf.sb).max_node < d) ++leaf.sb;
  }

  Bound LeafBound(BmLeaf& leaf, uint64_t d) {
    if (leaf.cursor.exhausted()) return Absent(kForever);
    // Keep the frontier synced to the probe even when the cursor answers:
    // frontier moves here are structural, so a later score skip charges
    // only the blocks it actually hops.
    ShallowSeek(leaf, d);
    if (leaf.cursor.current_block() != SIZE_MAX) {
      const uint64_t cur = leaf.cursor.current_node();
      if (cur > d) return Absent(cur - 1);
      if (cur == d) {
        // The cursor rests on the probe. The block's precomputed bound is
        // sound for any entry inside it and O(1); computing the exact
        // entry score here would double the scoring work of every
        // candidate that survives to DeepEval.
        return Bounded(leaf.block_ub[leaf.cursor.current_block()], d);
      }
      // cur < d: the cursor is stale for this probe; use the block bound.
    }
    if (leaf.sb >= leaf.num_blocks()) return Absent(kForever);
    return Bounded(leaf.block_ub[leaf.sb], leaf.list->skip(leaf.sb).max_node);
  }

  /// Bounds `node` over ids starting at `d` without decoding anything.
  Bound EvalBound(int node, uint64_t d) {
    const BmNode& n = tree_[node];
    if (n.kind == LangExpr::Kind::kToken) return LeafBound(leaves_[n.leaf], d);
    const Bound l = EvalBound(n.left, d);
    const Bound r = EvalBound(n.right, d);
    if (n.kind == LangExpr::Kind::kAnd) {
      // Absent while either side is absent: the union of the two absent
      // prefixes is [d, max(until)].
      if (l.absent && r.absent) return Absent(std::max(l.until, r.until));
      if (l.absent) return l;
      if (r.absent) return r;
      return Bounded(CombineAnd(l.ub, r.ub), std::min(l.until, r.until));
    }
    // OR: absent only while both sides are.
    if (l.absent && r.absent) return Absent(std::min(l.until, r.until));
    if (l.absent) return Bounded(r.ub, std::min(l.until, r.until));
    if (r.absent) return Bounded(l.ub, std::min(l.until, r.until));
    return Bounded(CombineOr(l.ub, r.ub), std::min(l.until, r.until));
  }

  /// Exact evaluation of `node` at id `d`. Mirrors BoolEvaluator's score
  /// expressions operator for operator — EntryScore at leaves,
  /// JoinScore(l, 1, r, 1) at AND, UnionBoth / single-side copy at OR — so
  /// matching nodes get bit-identical doubles to a full evaluation.
  bool DeepEval(int node, NodeId d, double* score) {
    const BmNode& n = tree_[node];
    switch (n.kind) {
      case LangExpr::Kind::kToken: {
        BmLeaf& leaf = leaves_[n.leaf];
        if (leaf.cursor.SeekEntry(d) != d) return false;
        *score =
            model_.EntryScore(index_, leaf.id, d, leaf.cursor.pos_count());
        return true;
      }
      case LangExpr::Kind::kAnd: {
        double ls = 0.0;
        double rs = 0.0;
        if (!DeepEval(n.left, d, &ls)) return false;
        if (!DeepEval(n.right, d, &rs)) return false;
        *score = model_.JoinScore(ls, 1, rs, 1);
        return true;
      }
      default: {  // kOr
        double ls = 0.0;
        double rs = 0.0;
        const bool lm = DeepEval(n.left, d, &ls);
        const bool rm = DeepEval(n.right, d, &rs);
        if (lm && rm) {
          *score = model_.UnionBoth(ls, rs);
          return true;
        }
        if (lm) *score = ls;
        if (rm) *score = rs;
        return lm || rm;
      }
    }
  }

  /// Charges blocks hopped by a score skip to `next_d` (the first id that
  /// will be probed again). Counts, per leaf, frontier blocks passed over
  /// that the cursor never decoded — the resident block (and anything at
  /// or before it) was already paid for, and an exhausted cursor's
  /// remaining blocks were structurally unreachable, not score-skipped.
  void ChargeScoreSkip(uint64_t next_d) {
    for (BmLeaf& leaf : leaves_) {
      const size_t nb = leaf.num_blocks();
      if (leaf.cursor.exhausted()) {
        leaf.sb = nb;
        continue;
      }
      size_t lo = leaf.sb;
      ShallowSeek(leaf, next_d);
      const size_t resident = leaf.cursor.current_block();
      if (resident != SIZE_MAX && resident + 1 > lo) lo = resident + 1;
      if (leaf.sb > lo) counters_->blocks_skipped_by_score += leaf.sb - lo;
    }
  }

  const InvertedIndex& index_;
  const AlgebraScoreModel& model_;
  EvalCounters* counters_;
  DecodedBlockCache* cache_;
  const TombstoneSet* tombstones_;
  std::vector<BmNode> tree_;
  std::vector<BmLeaf> leaves_;
};

}  // namespace

Status EvaluateBlockMaxTopK(const InvertedIndex& index,
                            const LangExprPtr& normalized,
                            const AlgebraScoreModel& model,
                            const SegmentRuntime* runtime, ExecContext& ctx,
                            NodeId base, TopKAccumulator& acc,
                            EvalCounters* query_counters) {
  const TombstoneSet* tombstones = runtime ? runtime->tombstones : nullptr;
  // Same cache-attachment decision the BOOL engine makes for this query:
  // attach only when some list is read twice and the working set fits (or
  // an L2 is present). Supported trees have no ANY leaves.
  std::vector<std::string> tokens;
  CollectSurfaceTokens(normalized, &tokens);
  DecodedBlockCache* cache =
      ctx.WantCache(
          DecodedBlockCache::ShouldAttach(index, std::move(tokens), 0))
          ? &ctx.l1_cache()
          : nullptr;
  EvalCounters counters;
  BlockMaxEvaluator evaluator(index, model, &counters, cache, tombstones);
  const Status st = evaluator.Run(normalized, ctx, base, acc);
  ctx.counters().MergeFrom(counters);
  if (query_counters != nullptr) query_counters->MergeFrom(counters);
  return st;
}

}  // namespace fts

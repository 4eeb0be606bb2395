#include "eval/planner.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "index/block_posting_list.h"

namespace fts {

namespace {

/// The price of one seek, in entry decodes: a skip-table hop lands in and
/// decodes a whole block (kDefaultBlockSize entries), so a seek-driven plan
/// pays only when the driving side is this many times smaller than what a
/// sequential pass would scan (or, for block-max, when k is this many times
/// smaller than the candidate set).
constexpr double kEntryDecodesPerSeek = 16.0;

// Structural cardinality estimate of one plan subtree, bottom-up from the
// list-header document frequencies: joins and intersections keep at most
// their smaller input, unions at most the sum, selections and projections
// at most their child, antijoins and differences at most their left side.
// Upper bounds, not exact counts — but they compose, so a nested operator
// is sized by its inputs' estimates instead of its raw leaf dfs.
uint64_t EstimatePlanCardinality(const FtaExprPtr& plan,
                                 const InvertedIndex& index) {
  if (!plan) return 0;
  switch (plan->kind()) {
    case FtaExpr::Kind::kToken:
      return index.df(index.LookupToken(plan->token()));
    case FtaExpr::Kind::kSearchContext:
    case FtaExpr::Kind::kHasPos:
      return index.num_nodes();
    case FtaExpr::Kind::kJoin:
    case FtaExpr::Kind::kIntersect:
      return std::min(EstimatePlanCardinality(plan->left(), index),
                      EstimatePlanCardinality(plan->right(), index));
    case FtaExpr::Kind::kUnion:
      return EstimatePlanCardinality(plan->left(), index) +
             EstimatePlanCardinality(plan->right(), index);
    case FtaExpr::Kind::kSelect:
    case FtaExpr::Kind::kProject:
      return EstimatePlanCardinality(plan->child(), index);
    case FtaExpr::Kind::kAntiJoin:
    case FtaExpr::Kind::kDifference:
      return EstimatePlanCardinality(plan->left(), index);
  }
  return 0;
}

// Collects the estimated size of each stream the pipeline zig-zags against
// the others: the operands of the join-like operators, seen through the
// size-preserving select/project wrappers. A join-free plan contributes a
// single stream, which PlanFromDfs answers with kSequential — there is
// nothing to skip against.
void CollectStreamEstimates(const FtaExprPtr& plan, const InvertedIndex& index,
                            std::vector<uint64_t>* sizes) {
  if (!plan) return;
  switch (plan->kind()) {
    case FtaExpr::Kind::kJoin:
    case FtaExpr::Kind::kIntersect:
    case FtaExpr::Kind::kAntiJoin:
    case FtaExpr::Kind::kDifference:
      CollectStreamEstimates(plan->left(), index, sizes);
      CollectStreamEstimates(plan->right(), index, sizes);
      return;
    case FtaExpr::Kind::kSelect:
    case FtaExpr::Kind::kProject:
      CollectStreamEstimates(plan->child(), index, sizes);
      return;
    default:
      sizes->push_back(EstimatePlanCardinality(plan, index));
      return;
  }
}

/// Snapshot-wide document frequency of a surface token: the sum of its
/// per-segment dfs (an upper bound under tombstones, which is the safe
/// direction for a cost estimate).
uint64_t SnapshotDf(const IndexSnapshot& snapshot, const std::string& token) {
  uint64_t df = 0;
  for (const SegmentView& seg : snapshot.segments()) {
    df += seg.index->df(seg.index->LookupToken(token));
  }
  return df;
}

/// Collects the df of every token-list leaf the evaluation would open
/// (token literals, HAS targets, dist() operands). ANY and negation
/// subtrees contribute the whole id space — a complement enumerates it.
void CollectLeafDfs(const LangExprPtr& e, const IndexSnapshot& snapshot,
                    std::vector<uint64_t>* dfs) {
  switch (e->kind()) {
    case LangExpr::Kind::kToken:
    case LangExpr::Kind::kVarHasToken:
      dfs->push_back(SnapshotDf(snapshot, e->token()));
      return;
    case LangExpr::Kind::kAny:
    case LangExpr::Kind::kVarHasAny:
      dfs->push_back(snapshot.total_nodes());
      return;
    case LangExpr::Kind::kDist:
      dfs->push_back(e->dist_tok1().empty()
                         ? snapshot.total_nodes()
                         : SnapshotDf(snapshot, e->dist_tok1()));
      dfs->push_back(e->dist_tok2().empty()
                         ? snapshot.total_nodes()
                         : SnapshotDf(snapshot, e->dist_tok2()));
      return;
    case LangExpr::Kind::kNot:
      // A complement reads its operand *and* enumerates the id space.
      dfs->push_back(snapshot.total_nodes());
      CollectLeafDfs(e->child(), snapshot, dfs);
      return;
    case LangExpr::Kind::kPred:
      return;  // predicates filter positions already produced by leaves
    default:
      break;
  }
  if (e->left() != nullptr) CollectLeafDfs(e->left(), snapshot, dfs);
  if (e->right() != nullptr) CollectLeafDfs(e->right(), snapshot, dfs);
}

/// Work multiplier of the evaluation class over the same leaf lists: a
/// BOOL merge touches each list once; PPRED adds per-position predicate
/// work; NPRED re-scans once per ordering; COMP materializes intermediate
/// position sets. Coarse by design — admission needs order-of-magnitude
/// separation, not a simulator.
uint64_t ClassMultiplier(LanguageClass cls) {
  switch (cls) {
    case LanguageClass::kBoolNoNeg:
    case LanguageClass::kBool:
      return 1;
    case LanguageClass::kPpred:
      return 2;
    case LanguageClass::kNpred:
      return 4;
    case LanguageClass::kComp:
      return 8;
  }
  return 8;
}

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a != 0 && b > UINT64_MAX / a) return UINT64_MAX;
  return a * b;
}

}  // namespace

CursorMode PlanFromDfs(std::span<const uint64_t> dfs) {
  if (dfs.size() < 2) return CursorMode::kSequential;
  uint64_t min_df = dfs[0];
  uint64_t sum = 0;
  for (uint64_t df : dfs) {
    sum += df;
    if (df < min_df) min_df = df;
  }
  // An empty (df 0) list — an OOV token, an empty intermediate set — is
  // the most selective driver possible: 0 * price <= others always holds,
  // so the zig-zag runs and terminates before decoding anything from the
  // other side.
  const double others = static_cast<double>(sum - min_df);
  return static_cast<double>(min_df) * kEntryDecodesPerSeek <= others
             ? CursorMode::kSeek
             : CursorMode::kSequential;
}

bool PlanAndSeek(CursorMode mode, uint64_t left, uint64_t right) {
  if (mode == CursorMode::kSeek) return true;
  assert(mode == CursorMode::kAdaptive);
  const uint64_t dfs[2] = {left, right};
  return PlanFromDfs(dfs) == CursorMode::kSeek;
}

CursorMode PlanPipelineCursorMode(CursorMode requested, const FtaExprPtr& plan,
                                  const InvertedIndex& index,
                                  uint64_t observed_cardinality) {
  if (requested != CursorMode::kAdaptive) return requested;
  std::vector<uint64_t> sizes;
  CollectStreamEstimates(plan, index, &sizes);
  if (observed_cardinality != kNoObservedCardinality) {
    sizes.push_back(observed_cardinality);
  }
  return PlanFromDfs(sizes);
}

bool PlanBlockMax(size_t top_k, uint64_t estimated_candidates) {
  if (top_k == 0) return false;
  return static_cast<double>(top_k) * kEntryDecodesPerSeek <=
         static_cast<double>(estimated_candidates);
}

uint64_t EstimateCandidates(const LangExprPtr& normalized,
                            const InvertedIndex& index) {
  switch (normalized->kind()) {
    case LangExpr::Kind::kToken:
      return index.df(index.LookupToken(normalized->token()));
    case LangExpr::Kind::kAnd:
      return std::min(EstimateCandidates(normalized->left(), index),
                      EstimateCandidates(normalized->right(), index));
    case LangExpr::Kind::kOr:
      return SaturatingAdd(EstimateCandidates(normalized->left(), index),
                           EstimateCandidates(normalized->right(), index));
    default:
      return index.num_nodes();
  }
}

bool PlanPairList(const InvertedIndex& index, const PairIndex::Lookup& lookup,
                  TokenId id_a, TokenId id_b) {
  const double df_pair = static_cast<double>(lookup.list->num_entries());
  const double recs_per_entry =
      static_cast<double>(lookup.list->total_positions()) / df_pair;
  const double pair_cost = df_pair * recs_per_entry;

  const BlockPostingList* la = index.block_list(id_a);
  const BlockPostingList* lb = index.block_list(id_b);
  if (la == nullptr || lb == nullptr || la->empty() || lb->empty())
    return false;  // empty driver: pipeline terminates instantly
  const double df_a = static_cast<double>(la->num_entries());
  const double df_b = static_cast<double>(lb->num_entries());
  const double pos_per_a = static_cast<double>(la->total_positions()) / df_a;
  const double pos_per_b = static_cast<double>(lb->total_positions()) / df_b;
  const double pipeline_cost =
      std::min(df_a, df_b) * (1.0 + pos_per_a + pos_per_b);
  return pair_cost <= pipeline_cost;
}

uint64_t PriceQuery(const LangExprPtr& normalized, LanguageClass cls,
                    const IndexSnapshot& snapshot) {
  std::vector<uint64_t> dfs;
  CollectLeafDfs(normalized, snapshot, &dfs);
  // No list opened (a pure-predicate degenerate tree) costs 0.
  uint64_t entries = 0;
  if (PlanFromDfs(dfs) == CursorMode::kSeek) {
    // A seek-driven join decodes only the blocks the most selective list
    // lands in, so the driver's df bounds the work.
    entries = *std::min_element(dfs.begin(), dfs.end());
  } else {
    for (const uint64_t df : dfs) entries = SaturatingAdd(entries, df);
  }
  return SaturatingMul(entries, ClassMultiplier(cls));
}

}  // namespace fts

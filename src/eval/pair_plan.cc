#include "eval/pair_plan.h"

#include <cstdint>
#include <string>
#include <vector>

#include "eval/planner.h"
#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"
#include "index/pair_index.h"

namespace fts {

namespace {

/// A pair-routable plan shape. `token_a` supplies the predicate's first
/// position argument and `token_b` the second (after composing the
/// Project column maps down to the join's leaf columns).
struct PairPlanMatch {
  std::string token_a;
  std::string token_b;
  const PositionPredicate* pred = nullptr;
  std::vector<int64_t> consts;
};

/// A resolved route to the pair index.
struct PairRoute {
  PairIndex::Lookup lookup;
  TokenId id_a = kInvalidToken;
  TokenId id_b = kInvalidToken;
  /// The canonical key exists in no list: the operator provably matches
  /// nothing, and evaluation emits an empty result without any reads.
  bool empty = false;
};

/// Structural matcher: true when `plan` is exactly the phrase/NEAR shape
/// described in the header, with a binary distance/odistance predicate
/// over two *distinct* token leaves. Projects above the select are ignored
/// (they change neither the node set nor node-level scores); Projects
/// below it are composed to map the select's columns onto the join
/// columns.
bool MatchPairablePlan(const FtaExprPtr& plan, PairPlanMatch* out) {
  // Projects above the select only narrow position columns; the node set
  // and node-level scores flow through them unchanged.
  const FtaExpr* p = plan.get();
  while (p != nullptr && p->kind() == FtaExpr::Kind::kProject) {
    p = p->child().get();
  }
  if (p == nullptr || p->kind() != FtaExpr::Kind::kSelect) return false;
  const AlgebraPredicateCall& call = p->pred();
  if (call.pred == nullptr) return false;
  const std::string_view name = call.pred->name();
  if (name != "distance" && name != "odistance") return false;
  if (call.cols.size() != 2 || call.consts.size() != 1) return false;

  // Compose the Project column maps below the select, so `map` tracks
  // which child columns supply the predicate's two position arguments.
  int map[2] = {call.cols[0], call.cols[1]};
  const FtaExpr* q = p->child().get();
  while (q != nullptr && q->kind() == FtaExpr::Kind::kProject) {
    const std::vector<int>& keep = q->project_cols();
    for (int& c : map) {
      if (c < 0 || static_cast<size_t>(c) >= keep.size()) return false;
      c = keep[c];
    }
    q = q->child().get();
  }
  if (q == nullptr || q->kind() != FtaExpr::Kind::kJoin) return false;
  const FtaExpr* l = q->left().get();
  const FtaExpr* r = q->right().get();
  if (l == nullptr || l->kind() != FtaExpr::Kind::kToken) return false;
  if (r == nullptr || r->kind() != FtaExpr::Kind::kToken) return false;
  if (l->num_cols() != 1 || r->num_cols() != 1) return false;
  // The two predicate arguments must be exactly the two leaf position
  // columns, one each (join schema: col 0 = left token, col 1 = right).
  if (!((map[0] == 0 && map[1] == 1) || (map[0] == 1 && map[1] == 0)))
    return false;
  // A repeated token ((t, t) at some distance) is never stored in the pair
  // index; the pipeline handles it.
  if (l->token() == r->token()) return false;

  out->token_a = map[0] == 0 ? l->token() : r->token();
  out->token_b = map[0] == 0 ? r->token() : l->token();
  out->pred = call.pred;
  out->consts = call.consts;
  return true;
}

/// Routing decision for a matched shape. Returns false when the operator
/// should run on the position pipeline: routing kOff, no pair index, query
/// distance beyond the built window, kAuto outside CursorMode::kAdaptive,
/// an OOV token (the pipeline terminates instantly on an empty driver),
/// neither token frequent, or kAuto losing the cost comparison
/// (PlanPairList, eval/planner.h). An eligible pair whose key is absent
/// routes as provably empty.
bool PlanPairRoute(const PairPlanMatch& match, const InvertedIndex& index,
                   CursorMode mode, PairRouting routing, PairRoute* out) {
  if (routing == PairRouting::kOff) return false;
  const PairIndex* pair = index.pair_index();
  if (pair == nullptr) return false;
  if (match.consts[0] < 0 ||
      match.consts[0] > static_cast<int64_t>(pair->max_distance()))
    return false;
  if (routing == PairRouting::kAuto && mode != CursorMode::kAdaptive)
    return false;

  const TokenId id_a = index.LookupToken(match.token_a);
  const TokenId id_b = index.LookupToken(match.token_b);
  // An OOV side already makes the pipeline terminate on an empty driver
  // list; nothing for the pair index to win.
  if (id_a == kInvalidToken || id_b == kInvalidToken) return false;

  const PairIndex::Lookup lookup = pair->Find(id_a, id_b);
  if (!lookup.eligible) return false;

  out->lookup = lookup;
  out->id_a = id_a;
  out->id_b = id_b;
  out->empty = lookup.list == nullptr;
  // An absent key for an eligible pair proves emptiness — the cheapest
  // possible plan, under any routing policy.
  if (out->empty || routing == PairRouting::kForce) return true;

  return PlanPairList(index, lookup, id_a, id_b);
}

/// Evaluates a routed operator: walks the pair list through a
/// BlockListCursor (inheriting block caches, tombstone filtering, and
/// first-touch validation), appends matching nodes (ascending) and — when
/// `model` is non-null — pipeline-identical scores. Charges pair_seeks
/// once, pair_entries_decoded per entry, and predicate_evals per record
/// tried. Fails closed with Corruption on malformed records and checks
/// the context's deadline periodically.
Status EvaluatePairPlan(const PairPlanMatch& match, const PairRoute& route,
                        const InvertedIndex& index,
                        const AlgebraScoreModel* model,
                        const TombstoneSet* tombstones, ExecContext& ectx,
                        QueryResult* result) {
  EvalCounters* counters = &result->counters;
  ++counters->pair_seeks;
  if (route.empty) return Status::OK();

  const int64_t window = int64_t{index.pair_index()->max_distance()} + 1;
  // One list read once: the L1 attaches only in front of an L2.
  DecodedBlockCache* cache = ectx.BlockCacheFor(index, {});
  const Deadline* deadline = &ectx.deadline();
  BlockListCursor cur(route.lookup.list, counters, cache, tombstones);
  PositionInfo args[2];
  size_t since_check = 0;
  for (NodeId n = cur.NextEntry(); n != kInvalidNode; n = cur.NextEntry()) {
    if (++since_check == 4096) {
      since_check = 0;
      FTS_RETURN_IF_ERROR(deadline->Check());
    }
    ++counters->pair_entries_decoded;
    const std::span<const PairRecord> rs = cur.GetRecords();
    if (!cur.status().ok()) return cur.status();
    if (rs.size() < 2) {
      return Status::Corruption("pair-list entry without records");
    }
    // The header record holds the two per-node term frequencies in storage
    // (first, second) order; every later record is one co-occurrence.
    const uint32_t tf_first = rs[0].first;
    const uint32_t tf_second = rs[0].second;
    if (tf_first == 0 || tf_second == 0) {
      return Status::Corruption("pair-list entry with zero term frequency");
    }
    bool found = false;
    uint32_t wa = 0, wb = 0;  // witness = lex-min satisfying (off_a, off_b)
    for (size_t k = 1; k < rs.size(); ++k) {
      const int64_t off_first = rs[k].first;
      const int32_t delta = PairIndex::UnZigZag(rs[k].second);
      if (delta == 0 || delta > window || delta < -window) {
        return Status::Corruption("pair-list record delta out of window");
      }
      const int64_t off_second = off_first + delta;
      if (off_second < 0 || off_second > UINT32_MAX) {
        return Status::Corruption("pair-list record offset out of range");
      }
      const uint32_t off_a =
          route.lookup.swapped ? static_cast<uint32_t>(off_second)
                               : static_cast<uint32_t>(off_first);
      const uint32_t off_b =
          route.lookup.swapped ? static_cast<uint32_t>(off_first)
                               : static_cast<uint32_t>(off_second);
      args[0] = {off_a, 0, 0};
      args[1] = {off_b, 0, 0};
      ++counters->predicate_evals;
      if (!match.pred->Eval(args, match.consts)) continue;
      if (!found || off_a < wa || (off_a == wa && off_b < wb)) {
        found = true;
        wa = off_a;
        wb = off_b;
      }
      // Records sort by (off_first, off_second): when the query reads the
      // key in storage order, the first satisfying record is already the
      // lexicographic minimum. Swapped queries reverse the coordinates,
      // so the minimum can appear anywhere and the scan must finish.
      if (!route.lookup.swapped) break;
    }
    if (!found) continue;
    result->nodes.push_back(n);
    if (model != nullptr) {
      const uint32_t tf_a = route.lookup.swapped ? tf_second : tf_first;
      const uint32_t tf_b = route.lookup.swapped ? tf_first : tf_second;
      const double joined =
          model->JoinScore(model->EntryScore(index, route.id_a, n, tf_a), 1,
                           model->EntryScore(index, route.id_b, n, tf_b), 1);
      args[0] = {wa, 0, 0};
      args[1] = {wb, 0, 0};
      result->scores.push_back(
          model->SelectScore(joined, *match.pred, args, match.consts));
    }
  }
  return cur.status();
}

}  // namespace

StatusOr<bool> TryEvaluatePairPlan(const FtaExprPtr& plan,
                                   const InvertedIndex& index,
                                   const AlgebraScoreModel* model,
                                   CursorMode mode, PairRouting routing,
                                   const TombstoneSet* tombstones,
                                   ExecContext& ectx, QueryResult* result) {
  PairPlanMatch match;
  if (!MatchPairablePlan(plan, &match)) return false;
  PairRoute route;
  if (!PlanPairRoute(match, index, mode, routing, &route)) {
    return false;
  }
  FTS_RETURN_IF_ERROR(
      EvaluatePairPlan(match, route, index, model, tombstones, ectx, result));
  return true;
}

}  // namespace fts

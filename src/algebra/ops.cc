#include "algebra/ops.h"

#include <algorithm>

#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"
#include "index/tombstone_set.h"

namespace fts {

namespace {

double CombineViaModel(void* ctx, double a, double b) {
  return static_cast<const AlgebraScoreModel*>(ctx)->ProjectCombine(a, b);
}

void NormalizeWith(FtRelation* r, const AlgebraScoreModel* model) {
  if (model != nullptr) {
    r->Normalize(&CombineViaModel, const_cast<AlgebraScoreModel*>(model));
  } else {
    r->Normalize();
  }
}

// Iterates a relation's tuples grouped by node: [begin, end) index ranges.
struct NodeGroup {
  size_t begin, end;
  NodeId node;
};

std::vector<NodeGroup> GroupByNode(const FtRelation& r) {
  std::vector<NodeGroup> groups;
  size_t i = 0;
  while (i < r.size()) {
    size_t j = i;
    while (j < r.size() && r.tuple(j).node == r.tuple(i).node) ++j;
    groups.push_back(NodeGroup{i, j, r.tuple(i).node});
    i = j;
  }
  return groups;
}

}  // namespace

StatusOr<FtRelation> OpScanToken(const InvertedIndex& index, std::string_view token,
                                 const AlgebraScoreModel* model,
                                 EvalCounters* counters, DecodedBlockCache* cache,
                                 const TombstoneSet* tombstones,
                                 const RunTable* structure) {
  const TokenId tok = index.LookupToken(token);
  if (tok == kInvalidToken) return FtRelation(1);  // OOV token: empty relation
  // One tuple per occurrence, each carrying the entry's static leaf score.
  BlockListCursor cursor(index.block_list(tok), counters, cache, tombstones,
                         structure);
  FtRelation out(1);
  while (cursor.NextEntry() != kInvalidNode) {
    const NodeId node = cursor.current_node();
    const double s = model ? model->LeafScore(index, tok, node) : 0.0;
    for (const PositionInfo& p : cursor.GetPositions()) {
      FtTuple t;
      t.node = node;
      t.positions = {p};
      t.score = s;
      out.Add(std::move(t));
      if (counters) {
        ++counters->tuples_materialized;
        ++counters->positions_scanned;
      }
    }
  }
  FTS_RETURN_IF_ERROR(cursor.status());
  return out;  // already sorted by construction
}

StatusOr<FtRelation> OpScanHasPos(const InvertedIndex& index,
                                  const AlgebraScoreModel* model,
                                  EvalCounters* counters, DecodedBlockCache* cache,
                                  const TombstoneSet* tombstones,
                                  const RunTable* structure) {
  BlockListCursor cursor(&index.block_any_list(), counters, cache, tombstones,
                         structure);
  FtRelation out(1);
  const double s = model ? model->AnyLeafScore() : 0.0;
  while (cursor.NextEntry() != kInvalidNode) {
    const NodeId node = cursor.current_node();
    for (const PositionInfo& p : cursor.GetPositions()) {
      FtTuple t;
      t.node = node;
      t.positions = {p};
      t.score = s;
      out.Add(std::move(t));
      if (counters) {
        ++counters->tuples_materialized;
        ++counters->positions_scanned;
      }
    }
  }
  FTS_RETURN_IF_ERROR(cursor.status());
  return out;
}

FtRelation OpScanSearchContext(const InvertedIndex& index,
                               const AlgebraScoreModel* model, EvalCounters* counters,
                               const TombstoneSet* tombstones) {
  FtRelation out(0);
  const double s = model ? model->AnyLeafScore() : 0.0;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    if (tombstones != nullptr && tombstones->Contains(n)) continue;
    FtTuple t;
    t.node = n;
    t.score = s;
    out.Add(std::move(t));
    if (counters) ++counters->tuples_materialized;
  }
  return out;
}

StatusOr<FtRelation> OpProject(const FtRelation& in, std::span<const int> cols,
                               const AlgebraScoreModel* model, EvalCounters* counters) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= in.num_cols()) {
      return Status::InvalidArgument("projection column " + std::to_string(c) +
                                     " out of range");
    }
  }
  FtRelation out(cols.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const FtTuple& t = in.tuple(i);
    FtTuple p;
    p.node = t.node;
    p.score = t.score;
    p.positions.reserve(cols.size());
    for (int c : cols) p.positions.push_back(t.positions[c]);
    out.Add(std::move(p));
    if (counters) ++counters->tuples_materialized;
  }
  NormalizeWith(&out, model);
  return out;
}

FtRelation OpJoin(const FtRelation& l, const FtRelation& r,
                  const AlgebraScoreModel* model, EvalCounters* counters) {
  FtRelation out(l.num_cols() + r.num_cols());
  const auto lg = GroupByNode(l);
  const auto rg = GroupByNode(r);
  size_t li = 0, ri = 0;
  while (li < lg.size() && ri < rg.size()) {
    if (lg[li].node < rg[ri].node) {
      ++li;
    } else if (rg[ri].node < lg[li].node) {
      ++ri;
    } else {
      const size_t lcount = lg[li].end - lg[li].begin;
      const size_t rcount = rg[ri].end - rg[ri].begin;
      for (size_t a = lg[li].begin; a < lg[li].end; ++a) {
        for (size_t b = rg[ri].begin; b < rg[ri].end; ++b) {
          const FtTuple& ta = l.tuple(a);
          const FtTuple& tb = r.tuple(b);
          FtTuple t;
          t.node = ta.node;
          t.positions.reserve(out.num_cols());
          t.positions.insert(t.positions.end(), ta.positions.begin(),
                             ta.positions.end());
          t.positions.insert(t.positions.end(), tb.positions.begin(),
                             tb.positions.end());
          t.score = model ? model->JoinScore(ta.score, rcount, tb.score, lcount)
                          : 0.0;
          out.Add(std::move(t));
          if (counters) ++counters->tuples_materialized;
        }
      }
      ++li;
      ++ri;
    }
  }
  NormalizeWith(&out, model);
  return out;
}

StatusOr<FtRelation> OpSelect(const FtRelation& in, const AlgebraPredicateCall& call,
                              const AlgebraScoreModel* model, EvalCounters* counters) {
  if (call.pred == nullptr) return Status::InvalidArgument("null predicate in select");
  FTS_RETURN_IF_ERROR(call.pred->ValidateSignature(call.cols.size(), call.consts.size()));
  for (int c : call.cols) {
    if (c < 0 || static_cast<size_t>(c) >= in.num_cols()) {
      return Status::InvalidArgument("selection column " + std::to_string(c) +
                                     " out of range");
    }
  }
  FtRelation out(in.num_cols());
  std::vector<PositionInfo> args(call.cols.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const FtTuple& t = in.tuple(i);
    for (size_t k = 0; k < call.cols.size(); ++k) args[k] = t.positions[call.cols[k]];
    if (counters) ++counters->predicate_evals;
    if (!call.pred->Eval(args, call.consts)) continue;
    FtTuple kept = t;
    if (model) {
      kept.score = model->SelectScore(t.score, *call.pred, args, call.consts);
    }
    out.Add(std::move(kept));
  }
  return out;  // order preserved; already normalized
}

StatusOr<FtRelation> OpAntiJoin(const FtRelation& l, const FtRelation& r,
                                const AlgebraScoreModel* model, EvalCounters* counters) {
  if (r.num_cols() != 0) {
    return Status::InvalidArgument("anti-join right side must be node-level");
  }
  FtRelation out(l.num_cols());
  size_t j = 0;
  for (size_t i = 0; i < l.size(); ++i) {
    if (counters) ++counters->tuples_materialized;
    const NodeId node = l.tuple(i).node;
    while (j < r.size() && r.tuple(j).node < node) ++j;
    if (j < r.size() && r.tuple(j).node == node) continue;
    FtTuple t = l.tuple(i);
    if (model) t.score = model->DifferenceScore(t.score);
    out.Add(std::move(t));
  }
  return out;
}

StatusOr<FtRelation> OpUnion(const FtRelation& l, const FtRelation& r,
                             const AlgebraScoreModel* model, EvalCounters* counters) {
  if (l.num_cols() != r.num_cols()) {
    return Status::InvalidArgument("union schema mismatch");
  }
  FtRelation out(l.num_cols());
  size_t i = 0, j = 0;
  while (i < l.size() || j < r.size()) {
    if (counters) ++counters->tuples_materialized;
    if (j >= r.size() || (i < l.size() && TupleLess(l.tuple(i), r.tuple(j)))) {
      out.Add(l.tuple(i++));
    } else if (i >= l.size() || TupleLess(r.tuple(j), l.tuple(i))) {
      out.Add(r.tuple(j++));
    } else {
      FtTuple t = l.tuple(i);
      t.score = model ? model->UnionBoth(l.tuple(i).score, r.tuple(j).score)
                      : l.tuple(i).score;
      out.Add(std::move(t));
      ++i;
      ++j;
    }
  }
  return out;
}

StatusOr<FtRelation> OpIntersect(const FtRelation& l, const FtRelation& r,
                                 const AlgebraScoreModel* model, EvalCounters* counters) {
  if (l.num_cols() != r.num_cols()) {
    return Status::InvalidArgument("intersect schema mismatch");
  }
  FtRelation out(l.num_cols());
  size_t i = 0, j = 0;
  while (i < l.size() && j < r.size()) {
    if (counters) ++counters->tuples_materialized;
    if (TupleLess(l.tuple(i), r.tuple(j))) {
      ++i;
    } else if (TupleLess(r.tuple(j), l.tuple(i))) {
      ++j;
    } else {
      FtTuple t = l.tuple(i);
      t.score = model ? model->IntersectScore(l.tuple(i).score, r.tuple(j).score)
                      : l.tuple(i).score;
      out.Add(std::move(t));
      ++i;
      ++j;
    }
  }
  return out;
}

StatusOr<FtRelation> OpDifference(const FtRelation& l, const FtRelation& r,
                                  const AlgebraScoreModel* model,
                                  EvalCounters* counters) {
  if (l.num_cols() != r.num_cols()) {
    return Status::InvalidArgument("difference schema mismatch");
  }
  FtRelation out(l.num_cols());
  size_t i = 0, j = 0;
  while (i < l.size()) {
    if (counters) ++counters->tuples_materialized;
    while (j < r.size() && TupleLess(r.tuple(j), l.tuple(i))) ++j;
    if (j < r.size() && TupleEq(l.tuple(i), r.tuple(j))) {
      ++i;
      continue;
    }
    FtTuple t = l.tuple(i);
    if (model) t.score = model->DifferenceScore(t.score);
    out.Add(std::move(t));
    ++i;
  }
  return out;
}

}  // namespace fts

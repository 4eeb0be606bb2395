// Materialized full-text algebra operators (paper Section 2.3.1).
//
// Every operator takes and returns normalized FtRelations, threading scores
// through the (optional) AlgebraScoreModel exactly as Section 3 specifies,
// and charging its inverted-list / tuple traffic to the (optional)
// EvalCounters. The join is the paper's equi-join on CNode only — position
// columns are concatenated, never compared — which is what makes the COMP
// engine's per-node cartesian products explicit.

#ifndef FTS_ALGEBRA_OPS_H_
#define FTS_ALGEBRA_OPS_H_

#include <span>
#include <string_view>

#include "algebra/relation.h"
#include "common/metrics.h"
#include "common/status.h"
#include "index/inverted_index.h"
#include "predicates/predicate.h"
#include "scoring/score_model.h"

namespace fts {

class DecodedBlockCache;  // index/decoded_block_cache.h

/// A predicate application against relation columns (0-based).
struct AlgebraPredicateCall {
  const PositionPredicate* pred = nullptr;
  std::vector<int> cols;
  std::vector<int64_t> consts;
};

/// R_token: one tuple per occurrence of `token` (text form) in the corpus,
/// scanned from the block-resident list. `cache` (nullable) serves
/// repeated block decodes within one query evaluation. `tombstones`
/// (nullable) filters deleted nodes out of the scan when `index` is one
/// segment of a snapshot. `structure` (nullable, the index's run table)
/// fills each position's sentence and paragraph; without it they read 0.
/// Returns Corruption when a lazily validated block fails its first-touch
/// decode (mmap-loaded index) rather than a truncated relation.
StatusOr<FtRelation> OpScanToken(const InvertedIndex& index, std::string_view token,
                                 const AlgebraScoreModel* model,
                                 EvalCounters* counters,
                                 DecodedBlockCache* cache = nullptr,
                                 const TombstoneSet* tombstones = nullptr,
                                 const RunTable* structure = nullptr);

/// HasPos: one tuple per position of every node (materializes IL_ANY).
/// Fails like OpScanToken on lazily detected corruption.
StatusOr<FtRelation> OpScanHasPos(const InvertedIndex& index,
                                  const AlgebraScoreModel* model,
                                  EvalCounters* counters,
                                  DecodedBlockCache* cache = nullptr,
                                  const TombstoneSet* tombstones = nullptr,
                                  const RunTable* structure = nullptr);

/// SearchContext: one zero-column tuple per live context node — tombstoned
/// nodes are outside the universe (deleted documents neither match nor
/// complement).
FtRelation OpScanSearchContext(const InvertedIndex& index,
                               const AlgebraScoreModel* model, EvalCounters* counters,
                               const TombstoneSet* tombstones = nullptr);

/// π over the given columns, in the given order (CNode always kept).
StatusOr<FtRelation> OpProject(const FtRelation& in, std::span<const int> cols,
                               const AlgebraScoreModel* model, EvalCounters* counters);

/// Equi-join on CNode; output columns are left's then right's.
FtRelation OpJoin(const FtRelation& l, const FtRelation& r,
                  const AlgebraScoreModel* model, EvalCounters* counters);

/// σ_pred over the given columns.
StatusOr<FtRelation> OpSelect(const FtRelation& in, const AlgebraPredicateCall& call,
                              const AlgebraScoreModel* model, EvalCounters* counters);

/// Node-level anti-join: keeps the tuples of `l` whose node does not appear
/// in `r` (`r` must have zero position columns). This is how "Query AND NOT
/// Query*" evaluates without touching IL_ANY (paper Section 5.5's
/// difference, Algorithm 5).
StatusOr<FtRelation> OpAntiJoin(const FtRelation& l, const FtRelation& r,
                                const AlgebraScoreModel* model, EvalCounters* counters);

/// Set union / intersection / difference (schemas must match).
StatusOr<FtRelation> OpUnion(const FtRelation& l, const FtRelation& r,
                             const AlgebraScoreModel* model, EvalCounters* counters);
StatusOr<FtRelation> OpIntersect(const FtRelation& l, const FtRelation& r,
                                 const AlgebraScoreModel* model, EvalCounters* counters);
StatusOr<FtRelation> OpDifference(const FtRelation& l, const FtRelation& r,
                                  const AlgebraScoreModel* model, EvalCounters* counters);

}  // namespace fts

#endif  // FTS_ALGEBRA_OPS_H_

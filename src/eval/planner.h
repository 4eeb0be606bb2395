// The cost model: every adaptive access-path decision the engines make,
// and the admission price of a query. Costs are in the paper's Section 5.1
// currency, inverted-list accesses, estimated from block-list header
// statistics (document frequencies, position totals) before any decode.
// The seek-based rules share one constant, kEntryDecodesPerSeek = 16
// (planner.cc): the number of entry decodes one seek is worth.
//
// Forced cursor modes bypass the cost rules: kSequential never seeks, never
// uses block-max and never routes to the pair index; kSeek always seeks
// and always takes block-max when eligible. Every decision changes only
// the access pattern, never results or scores.

#ifndef FTS_EVAL_PLANNER_H_
#define FTS_EVAL_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "algebra/fta.h"
#include "eval/engine.h"
#include "index/index_snapshot.h"
#include "index/pair_index.h"
#include "lang/ast.h"
#include "lang/classify.h"

namespace fts {

// --- Seek vs sequential ----------------------------------------------------

/// Given the sizes of the lists an operator zig-zags (dfs for token lists,
/// cardinalities for evaluated inputs), plans kSeek when the smallest times
/// kEntryDecodesPerSeek is at most the sum of the others (ties seek; an
/// empty list always drives a seek), else kSequential. Fewer than two
/// lists plan kSequential: nothing to zig-zag against.
CursorMode PlanFromDfs(std::span<const uint64_t> dfs);

/// BOOL's per-AND decision for sides reading `left` and `right` entries:
/// kSeek always seeks, kAdaptive asks PlanFromDfs (never kSequential).
bool PlanAndSeek(CursorMode mode, uint64_t left, uint64_t right);

/// Sentinel for PlanPipelineCursorMode: no measured cardinality.
inline constexpr uint64_t kNoObservedCardinality = ~0ull;

/// Resolves the cursor mode of one PPRED/NPRED pipeline: forced modes pass
/// through; kAdaptive applies PlanFromDfs to the estimated size of each
/// stream the pipeline zig-zags, bottom-up from the list headers (token →
/// df, join/intersect → min, union → sum, select/project → child,
/// antijoin/difference → left). `observed_cardinality`, when given, is a
/// measured result size (the smallest among the NPRED orderings already
/// run) added as one more driver candidate.
CursorMode PlanPipelineCursorMode(
    CursorMode requested, const FtaExprPtr& plan, const InvertedIndex& index,
    uint64_t observed_cardinality = kNoObservedCardinality);

// --- Block-max vs full evaluation ------------------------------------------

/// kAdaptive's top-k choice: block-max when top_k * kEntryDecodesPerSeek
/// is at most `estimated_candidates` (ties too); top_k == 0 never.
bool PlanBlockMax(size_t top_k, uint64_t estimated_candidates);

/// Candidates of a NormalizeSurface'd token/AND/OR tree from dfs: leaf =
/// df, AND = min, OR = saturating sum, anything else = the whole index.
uint64_t EstimateCandidates(const LangExprPtr& normalized,
                            const InvertedIndex& index);

// --- Pair list vs position pipeline ----------------------------------------

/// kAuto's comparison for an eligible pair with a list, in decoded-triple
/// units: df_pair * records_per_entry against min(df_a, df_b) * (1 +
/// pos_per_a + pos_per_b). Like every rule here it reads only the
/// segment's own list headers (the pair list, a's and b's): cost is counted
/// in accesses to the lists this segment reads, so snapshot-global dfs,
/// which only scoring needs, never enter it. True (ties too) routes to the
/// pair list; an empty side keeps the pipeline, which stops at once.
bool PlanPairList(const InvertedIndex& index, const PairIndex::Lookup& lookup,
                  TokenId id_a, TokenId id_b);

// --- Admission price -------------------------------------------------------

/// Estimated posting entries a NormalizeSurface'd query of class `cls`
/// touches across `snapshot`: the snapshot-summed df of every list it
/// opens (ANY and complements count the whole id space) — the smallest
/// when PlanFromDfs would drive a seek, else their sum — times the class's
/// work multiplier (BOOL 1, PPRED 2, NPRED 4, COMP 8), saturating.
uint64_t PriceQuery(const LangExprPtr& normalized, LanguageClass cls,
                    const IndexSnapshot& snapshot);

}  // namespace fts

#endif  // FTS_EVAL_PLANNER_H_

// Machine-independent cost counters collected during query evaluation.
//
// The paper's complexity model (Section 5.1) counts sequential inverted-list
// accesses; these counters let the benchmark harness validate the *shape* of
// the complexity hierarchy (Figure 3) without depending on wall-clock noise.

#ifndef FTS_COMMON_METRICS_H_
#define FTS_COMMON_METRICS_H_

#include <cstdint>
#include <string>

namespace fts {

// The counter fields, in declaration order, as X(field, label): `label`
// is the field's key in EvalCounters::ToString(). The struct, its
// accumulation, ToString, the wire encoding (net/wire.cc, which sends the
// fields in this order) and the fts_eval_<field> lines of /metrics
// (net/server.cc) all expand this one table, so a new counter is one line
// here — appended, since wire order is table order.
//
//   entries_scanned         Inverted-list entries visited via nextEntry()
//                           (one per (node, token)).
//   positions_scanned       Individual positions read from PosLists.
//   tuples_materialized     Tuples materialized by the algebra engine (COMP
//                           only; pipelined engines materialize nothing).
//   predicate_evals         Position-predicate evaluations.
//   cursor_ops              advanceNode/advancePosition calls on pipelined
//                           cursors.
//   orderings_run           Ordering permutations executed (NPRED only; 1
//                           for everything else).
//   skip_checks             Skip-header probes made by SeekEntry (binary-
//                           search steps over the block skip table, or over
//                           raw entries for uncompressed lists). These are
//                           *not* sequential accesses in the paper's model;
//                           they are reported separately so the paper's
//                           operation-count figures stay honest.
//   blocks_decoded          Compressed blocks decoded by block cursors
//                           (sequential or seek).
//   entries_decoded         Posting entries decoded from compressed blocks.
//                           A seek that lands in one block decodes one
//                           block's worth, independent of list length.
//   positions_decoded       Positions decoded from compressed PosList
//                           payloads (charged on the first GetPositions()
//                           of an entry). Node-level work — df lookups,
//                           BOOL merges, zig-zag alignment — keeps this at
//                           zero.
//   blocks_bulk_decoded     Blocks whose ids + entry headers were decoded
//                           in one bulk pass through the group varint
//                           decoder (every cursor block load takes this
//                           path; a cache hit does not).
//   cache_hits              Block loads served from a per-query (L1)
//                           DecodedBlockCache without decoding anything.
//   cache_misses            Block loads that decoded and inserted (or, with
//                           an L2 attached, fell through to it).
//   shared_cache_hits       Cross-query SharedBlockCache (L2) hits: block
//                           loads served from the shard maps without
//                           decoding — typically blocks another query
//                           already paid to bulk-decode (and, on mmap-served
//                           indexes, first-touch validate).
//   shared_cache_misses     L2 misses: block loads that decoded and
//                           published the block for later queries.
//   first_touch_validations Blocks that passed first-touch validation
//                           (checksum + structure) while this query was
//                           running — nonzero only on the first queries
//                           after a lazy (mmap) index load; once a block's
//                           validation is memoized, later decodes charge
//                           nothing here.
//   blocks_skipped_by_score Blocks a block-max top-k evaluation hopped over
//                           because their summed impact upper bounds could
//                           not beat the heap threshold — blocks a full
//                           evaluation would have decoded and this query
//                           never did. The early-termination win in one
//                           number.
//   simd_groups_decoded     Varint groups decoded through a SIMD arm (one
//                           per bulk group-decoder call — entry-header
//                           streams, position-record chunks, bitset-block
//                           count/length streams). Zero when the scalar arm
//                           is dispatched (FTS_FORCE_SCALAR_DECODE=1 or no
//                           SSSE3), so tests can assert the intended arm
//                           actually ran.
//   bitset_blocks_intersected  Dense (bitset-encoded) block pairs
//                           intersected at word level by the BOOL zig-zag
//                           AND fast path instead of entry-at-a-time
//                           seeking.
//   pair_seeks              Phrase/NEAR operators the multi-index planner
//                           routed to an auxiliary (frequent-term,
//                           other-term) pair list instead of the position
//                           pipeline (docs/pair_index.md). One per routed
//                           operator, including routes that prove the
//                           result empty without touching a list.
//   pair_entries_decoded    Pair-list entries (one per matching node)
//                           walked by routed operators. The pair-path
//                           analogue of entries_scanned; the ratio against
//                           the pipeline's entries_scanned on the same
//                           query is the win.
#define FTS_EVAL_COUNTER_FIELDS(X)                      \
  X(entries_scanned, "entries")                         \
  X(positions_scanned, "positions")                     \
  X(tuples_materialized, "tuples")                      \
  X(predicate_evals, "preds")                           \
  X(cursor_ops, "cursor_ops")                           \
  X(orderings_run, "orderings")                         \
  X(skip_checks, "skip_checks")                         \
  X(blocks_decoded, "blocks_decoded")                   \
  X(entries_decoded, "entries_decoded")                 \
  X(positions_decoded, "positions_decoded")             \
  X(blocks_bulk_decoded, "blocks_bulk_decoded")         \
  X(cache_hits, "cache_hits")                           \
  X(cache_misses, "cache_misses")                       \
  X(shared_cache_hits, "l2_hits")                       \
  X(shared_cache_misses, "l2_misses")                   \
  X(first_touch_validations, "first_touch")             \
  X(blocks_skipped_by_score, "blocks_skipped_by_score") \
  X(simd_groups_decoded, "simd_groups")                 \
  X(bitset_blocks_intersected, "bitset_ands")           \
  X(pair_seeks, "pair_seeks")                           \
  X(pair_entries_decoded, "pair_entries")

#define FTS_COUNTER_ONE(field, label) +1
/// Number of EvalCounters fields (the table's length).
inline constexpr uint32_t kNumEvalCounterFields =
    0 FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_ONE);
#undef FTS_COUNTER_ONE

/// Per-query evaluation cost counters. Every engine resets and fills one of
/// these for each Evaluate() call; all counters are cumulative within a call.
/// Fields are documented with the table above.
struct EvalCounters {
#define FTS_COUNTER_DECLARE(field, label) uint64_t field = 0;
  FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_DECLARE)
#undef FTS_COUNTER_DECLARE

  void Reset() { *this = EvalCounters{}; }

  /// Field-wise accumulation — the one aggregation routine shared by the
  /// NPRED per-ordering loop, ExecContext, and service-level metrics, so no
  /// caller hand-copies field sums.
  void MergeFrom(const EvalCounters& o) { *this += o; }

  EvalCounters& operator+=(const EvalCounters& o) {
#define FTS_COUNTER_ADD(field, label) field += o.field;
    FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_ADD)
#undef FTS_COUNTER_ADD
    return *this;
  }

  /// "entries=1 positions=2 ..." — every field as label=value, in table
  /// order.
  std::string ToString() const {
    std::string out;
#define FTS_COUNTER_PRINT(field, label) \
  out += " " label "=" + std::to_string(field);
    FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_PRINT)
#undef FTS_COUNTER_PRINT
    return out.substr(1);
  }
};

// A field declared outside the table would be missed by every expansion.
static_assert(sizeof(EvalCounters) == kNumEvalCounterFields * sizeof(uint64_t),
              "declare EvalCounters fields in FTS_EVAL_COUNTER_FIELDS");

}  // namespace fts

#endif  // FTS_COMMON_METRICS_H_

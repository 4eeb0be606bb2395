// Searcher: the read entry point. It classifies a query into the paper's
// complexity hierarchy (Figure 3), dispatches it to the cheapest engine
// that can evaluate it, and falls back to COMP if a specialized engine
// declines. A Searcher binds one immutable IndexSnapshot generation and
// evaluates each query per segment, where the engines run unchanged over
// disjoint doc-id sub-spaces (docs/ingestion.md). A single InvertedIndex
// is served through its one-segment snapshot (IndexSnapshot::ForIndex);
// SearchService (exec/search_service.h) is the pooled form.

#ifndef FTS_EVAL_SEARCHER_H_
#define FTS_EVAL_SEARCHER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "eval/engine.h"
#include "eval/npred_engine.h"
#include "eval/ppred_engine.h"
#include "exec/exec_context.h"
#include "index/index_snapshot.h"
#include "lang/classify.h"
#include "lang/parser.h"

namespace fts {

/// A routed evaluation outcome.
struct RoutedResult {
  QueryResult result;
  LanguageClass language_class;
  /// Engine that produced the result. Resolved once from the first segment
  /// (the COMP-fallback decision is query-deterministic, so every segment
  /// agrees); "NONE" when the snapshot has no segments and nothing ran.
  std::string engine;
};

/// Construction knobs for a Searcher.
struct SearcherOptions {
  ScoringKind scoring = ScoringKind::kNone;
  /// kAdaptive plans seek vs sequential per query from the lists' df
  /// statistics (eval/planner.h); kSequential reproduces the paper's access
  /// counts exactly; kSeek forces skip-seeking everywhere.
  CursorMode mode = CursorMode::kAdaptive;
  /// Phrase/NEAR routing to the pair index when segments carry one
  /// (src/eval/pair_plan.h). kAuto only fires under CursorMode::kAdaptive.
  PairRouting pair_routing = PairRouting::kAuto;
};

/// Evaluates queries over one IndexSnapshot generation.
///
/// The query is classified once (classification is query-only) and then
/// evaluated segment by segment: every segment gets its own engine bank
/// wired to a SegmentRuntime, so cursors filter that segment's tombstones
/// and score models read that segment's scoring record. Per-segment
/// results — each ascending in local node ids — are rebased by the
/// segment's global base and concatenated; since bases are disjoint and
/// increasing in segment order, the concatenation is globally ascending
/// with no merge step. An engine declining with Unsupported falls back to
/// COMP; the decision is query-deterministic, so all segments agree on the
/// serving engine.
///
/// The Searcher shares ownership of the snapshot: a query in flight keeps
/// its generation alive even after a writer publishes a newer one. It asks
/// the snapshot for its scoring stats (IndexSnapshot::ScoringStats) if and
/// only if it scores — the planner reads each segment's own list headers,
/// never the stats; if they fail (a corrupt lazily validated segment),
/// every query fails with that status. Otherwise it notes an unscored
/// reader on the snapshot (IndexSnapshot::stats_demand) and wires each
/// segment's own record, which nothing then reads.
///
/// Thread safety: immutable after construction; evaluate from many threads
/// concurrently with one ExecContext per thread. Per-query state lives in
/// the context, including the cross-query L2 block cache a caller may
/// share between contexts (ExecOptions::shared_cache).
class Searcher {
 public:
  explicit Searcher(std::shared_ptr<const IndexSnapshot> snapshot,
                    SearcherOptions options = {});

  /// Parses `query` as COMP (the superset language) and evaluates it over
  /// every segment on the cheapest applicable engine.
  StatusOr<RoutedResult> Search(std::string_view query, ExecContext& ctx) const;

  /// As above for an already-parsed query. When ctx.top_k() is nonzero the
  /// result holds only the k best nodes in rank order (descending score,
  /// ties by ascending global node id — exactly TopK over the full
  /// evaluation); scored pure token/AND/OR queries may then take the
  /// block-max early-termination path (docs/index_format.md), chosen per
  /// segment by the same adaptive planner that picks seek vs sequential.
  /// The deadline is also checked between segments, so a multi-segment
  /// snapshot cannot overrun an expired deadline by whole segments.
  StatusOr<RoutedResult> SearchParsed(const LangExprPtr& query,
                                      ExecContext& ctx) const;

  const IndexSnapshot& snapshot() const { return *snapshot_; }

 private:
  /// One segment's runtime and engines.
  struct SegmentEngines {
    SegmentEngines(const SegmentView& seg, const SegmentScoringStats& scoring,
                   const SearcherOptions& opts)
        : runtime{seg.tombstones, scoring},
          bool_engine(seg.index, opts.scoring, opts.mode, &runtime),
          ppred_engine(seg.index, opts.scoring, opts.mode, opts.pair_routing,
                       &runtime),
          npred_engine(seg.index, opts.scoring,
                       NpredOrderingMode::kNecessaryPartialOrders, opts.mode,
                       opts.pair_routing, &runtime),
          comp_engine(seg.index, opts.scoring, &runtime) {}

    SegmentRuntime runtime;
    BoolEngine bool_engine;
    PpredEngine ppred_engine;
    NpredEngine npred_engine;
    CompEngine comp_engine;
  };

  /// One segment's evaluate step: runs `query` on the engine the language
  /// class selects in `se`, falling back to COMP when that engine declines
  /// with Unsupported. Names the engine that ran in `*engine_name` unless
  /// it is null (callers pass it for the first segment only).
  StatusOr<QueryResult> EvaluateSegment(const SegmentEngines& se,
                                        const LangExprPtr& query,
                                        LanguageClass cls, ExecContext& ctx,
                                        std::string* engine_name) const;

  /// The ranked (ctx.top_k() > 0) evaluation path: one TopKAccumulator
  /// across all segments, per-segment block-max or full evaluation.
  /// `out` arrives with language_class set and engine defaulted.
  StatusOr<RoutedResult> SearchTopK(const LangExprPtr& query, ExecContext& ctx,
                                    RoutedResult out) const;

  std::shared_ptr<const IndexSnapshot> snapshot_;
  SearcherOptions options_;
  /// Why the snapshot's scoring stats could not be computed; every query
  /// fails with it.
  Status stats_status_;
  std::vector<std::unique_ptr<SegmentEngines>> segments_;
};

}  // namespace fts

#endif  // FTS_EVAL_SEARCHER_H_

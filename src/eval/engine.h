// Engine interface shared by the four evaluation strategies of paper
// Section 5 (BOOL merges, pipelined PPRED, per-ordering NPRED, materialized
// COMP). Engines take parsed surface queries, return matching node ids with
// optional scores, and report machine-independent cost counters.

#ifndef FTS_EVAL_ENGINE_H_
#define FTS_EVAL_ENGINE_H_

#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "index/index_snapshot.h"
#include "index/inverted_index.h"
#include "lang/ast.h"
#include "scoring/score_model.h"

namespace fts {

/// Per-segment evaluation inputs: the segment's tombstones (filtered at
/// cursor level — engines never see a deleted node; null when nothing is
/// deleted) and the scoring record every score model and planner rule
/// reads (index/inverted_index.h). The Searcher builds one per segment of
/// its snapshot; an engine built without a runtime runs over its index
/// alone, with no tombstones and index.scoring_stats().
struct SegmentRuntime {
  const TombstoneSet* tombstones = nullptr;
  SegmentScoringStats scoring;

  /// `*segment` when given, else the standalone runtime of `index`.
  static SegmentRuntime Of(const InvertedIndex& index,
                           const SegmentRuntime* segment) {
    return segment != nullptr ? *segment
                              : SegmentRuntime{nullptr, index.scoring_stats()};
  }
};

/// How engines traverse inverted lists.
enum class CursorMode {
  /// Strictly sequential nextEntry()/getPositions(), the paper's Section
  /// 5.1.2 access model. Operation counts reproduce the paper's figures.
  kSequential,
  /// Skip-based seeking over the block-compressed lists: zig-zag joins call
  /// SeekEntry instead of stepping, decoding only the blocks they land in.
  /// Results are identical to kSequential; only the access pattern changes.
  kSeek,
  /// Per-query planner: engines read df statistics from the block-list
  /// headers and choose kSequential or kSeek per operator/pipeline via
  /// the cost model in eval/planner.h. Results are identical to both fixed
  /// modes; only the access pattern is chosen adaptively. The forced modes
  /// above bypass the planner entirely (paper-faithful access counts need
  /// kSequential).
  kAdaptive,
};

const char* CursorModeToString(CursorMode mode);

/// Whether phrase/NEAR-shaped operators may be routed to the auxiliary
/// (frequent-term, other-term) pair lists when the index carries them
/// (src/eval/pair_plan.h, docs/pair_index.md). Routing never changes
/// results — the pair lists are an exact substitute — only which index the
/// operator reads.
enum class PairRouting {
  /// Route when the multi-index cost model prefers the pair list. Only
  /// active under CursorMode::kAdaptive — the forced cursor modes pin the
  /// position pipeline so their access counts stay paper-faithful.
  kAuto,
  /// Route every eligible operator unconditionally (differential tests
  /// pin the pair path against the pipeline with this).
  kForce,
  /// Never route; the position pipeline runs as if no pair index existed.
  kOff,
};

const char* PairRoutingToString(PairRouting routing);

/// Result of one query evaluation.
struct QueryResult {
  /// Matching context nodes, ascending.
  std::vector<NodeId> nodes;
  /// Scores parallel to `nodes`; empty when scoring is kNone.
  std::vector<double> scores;
  /// Evaluation cost counters for this query.
  EvalCounters counters;
};

/// A query evaluation strategy over one InvertedIndex.
///
/// Thread safety: engines are immutable after construction and the index
/// they read is immutable after load, so one engine instance may evaluate
/// queries from many threads concurrently.
/// All mutable per-query state lives in the caller's ExecContext, which is
/// single-threaded — one context per thread.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Engine name as used in the paper's figures (BOOL, PPRED, NPRED, COMP).
  virtual std::string_view name() const = 0;

  /// Evaluates a parsed query under caller-provided per-query execution
  /// state: `ctx` supplies the decoded-block caches (L1, optional L2),
  /// accumulates counters, and may impose a deadline. Returns Unsupported
  /// when the query falls outside the engine's language class (the Searcher
  /// then falls back to a more expressive engine) and DeadlineExceeded
  /// when ctx's deadline expires mid-evaluation.
  virtual StatusOr<QueryResult> Evaluate(const LangExprPtr& query,
                                         ExecContext& ctx) const = 0;

  /// Evaluates under a fresh default ExecContext (auto L1 policy, no L2, no
  /// deadline): the engines' unit-test entry point. Serving code goes
  /// through Searcher::Search(query, ExecContext&) instead. Derived classes
  /// re-export it with `using Engine::Evaluate`.
  StatusOr<QueryResult> Evaluate(const LangExprPtr& query) const {
    ExecContext ctx;
    return Evaluate(query, ctx);
  }
};

}  // namespace fts

#endif  // FTS_EVAL_ENGINE_H_

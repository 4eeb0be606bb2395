// Engine interface shared by the four evaluation strategies of paper
// Section 5 (BOOL merges, pipelined PPRED, per-ordering NPRED, materialized
// COMP). Engines take parsed surface queries, return matching node ids with
// optional scores, and report machine-independent cost counters.

#ifndef FTS_EVAL_ENGINE_H_
#define FTS_EVAL_ENGINE_H_

#include <span>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "index/index_snapshot.h"
#include "index/inverted_index.h"
#include "lang/ast.h"

namespace fts {

/// Per-segment evaluation inputs an engine needs when its index is one
/// segment of an IndexSnapshot rather than a standalone corpus: the
/// segment's tombstones (filtered at cursor level — engines never see a
/// deleted node) and the snapshot-global scoring stats (null on the
/// single-segment fast path, where the segment's own statistics are
/// already global). Engines default to a null runtime, which is exactly
/// the pre-snapshot behavior. The runtime must outlive the engine — in
/// practice both live in a Searcher, which holds the snapshot.
struct SegmentRuntime {
  const TombstoneSet* tombstones = nullptr;
  const SegmentScoringStats* scoring = nullptr;
};

/// Which Section 3 scoring method an engine applies (kNone disables
/// scoring entirely).
enum class ScoringKind {
  kNone,
  kTfIdf,
  kProbabilistic,
};

const char* ScoringKindToString(ScoringKind kind);

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
  /// PlanFromDfs. Results are identical to both fixed modes; only the
  /// access pattern is chosen adaptively. The forced modes above bypass
  /// the planner entirely (paper-faithful access counts need kSequential).
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

/// Tunables of the adaptive access-mode planner.
struct AdaptivePlannerOptions {
  /// A driver (smallest-df) list must be at least this many times smaller
  /// than the combined other lists before seeking pays: seeks decode whole
  /// landing blocks (kDefaultBlockSize entries a hop), so the driver must
  /// be selective enough that hops actually skip blocks. Ties (driver *
  /// threshold == sum of others) choose kSeek.
  double selectivity_threshold = 16.0;
};

/// The access-mode heuristic: given the per-list sizes an operator would
/// read (document frequencies for token lists, intermediate cardinalities
/// for already-evaluated inputs), picks kSeek when the smallest list is
/// selective enough to drive skips (min * threshold <= sum of the rest)
/// and kSequential otherwise. An empty (df 0) list is the most selective
/// driver of all — the zig-zag terminates immediately — so it always
/// plans kSeek against non-empty peers. Fewer than two lists plan
/// kSequential: there is nothing to zig-zag against.
CursorMode PlanFromDfs(std::span<const uint64_t> dfs,
                       const AdaptivePlannerOptions& opts = {});

/// The block-max analogue of PlanFromDfs: should a top-`top_k` evaluation
/// use block-max skipping rather than full evaluation? Skipping pays when
/// the requested k is small relative to the candidate set the query could
/// touch (`estimated_candidates`, computed from df statistics: leaf = df,
/// AND = min of children, OR = sum) — the heap threshold then rises early
/// and most candidate blocks fall under it. The same selectivity threshold
/// governs both planners: k * threshold <= candidates chooses block-max
/// (ties choose block-max, mirroring PlanFromDfs). top_k == 0 (no ranking
/// requested) always chooses full evaluation.
bool PlanBlockMax(size_t top_k, uint64_t estimated_candidates,
                  const AdaptivePlannerOptions& opts = {});

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
/// Thread safety: engines are immutable after construction (the raw-oracle
/// test seam aside) and the index they read is immutable after load, so one
/// engine instance may evaluate queries from many threads concurrently.
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

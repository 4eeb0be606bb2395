// Pipelined position cursors: the operator API of paper Section 5.5.3.
//
// Every operator in a PPRED/NPRED plan exposes the same four operations —
//
//   AdvanceNode()             move to the next node with at least one tuple,
//                             positioned on that node's minimal tuple
//   node()                    current node id
//   AdvancePosition(col, off) seek to the minimal tuple of the current node
//                             whose column `col` has offset >= off
//   position(col)             current position of a column
//
// — so a whole plan evaluates in one pipelined pass over the inverted
// lists, materializing nothing (Algorithms 1-5). The select operator
// implements advancePosUntilSat: positive predicates skip via the
// Definition 1 advance bounds; negative predicates advance the cursor
// currently holding the largest position (Algorithm 7), relying on the
// NPRED driver to pin orderings via `le` selections underneath.
//
// BuildPipeline instantiates a cursor tree from an FTA plan; plans
// containing operators the pipeline cannot stream (IL_ANY scans,
// SearchContext complements, general-class predicates) are rejected with
// Unsupported so callers can fall back to materialized COMP evaluation.

#ifndef FTS_EVAL_POS_CURSOR_H_
#define FTS_EVAL_POS_CURSOR_H_

#include <memory>

#include "algebra/fta.h"
#include "common/metrics.h"
#include "common/status.h"
#include "eval/engine.h"
#include "index/inverted_index.h"
#include "scoring/score_model.h"

namespace fts {

class DecodedBlockCache;  // index/decoded_block_cache.h

/// Pipelined operator cursor (the Section 5.5.3 API).
class PosCursor {
 public:
  virtual ~PosCursor() = default;

  /// Number of position columns this operator exposes.
  virtual size_t num_cols() const = 0;

  /// Advances to the next context node that has at least one result tuple
  /// and positions on its minimal tuple. Returns kInvalidNode at the end.
  virtual NodeId AdvanceNode() = 0;

  /// Positions on the first result node with id >= `target` (starting the
  /// cursor if needed; never moving backwards) and returns it, or
  /// kInvalidNode when no such node exists. The default implementation
  /// steps with AdvanceNode, preserving the paper's sequential access
  /// counts; scans in seek mode override it with skip-based SeekEntry, and
  /// joins use it for zig-zag alignment.
  virtual NodeId SeekNode(NodeId target);

  /// Current node (kInvalidNode before the first AdvanceNode / at the end).
  virtual NodeId node() const = 0;

  /// Seeks, within the current node, to the minimal tuple whose column
  /// `col` has offset >= `min_offset`. Returns false when no such tuple
  /// exists in this node.
  virtual bool AdvancePosition(size_t col, uint32_t min_offset) = 0;

  /// Position of column `col` in the current tuple.
  virtual PositionInfo position(size_t col) const = 0;

  /// Node-level score of the current node (structure-driven: scans fold
  /// their entry's static scores, joins/unions combine child scores per the
  /// score model). 0 when no model is attached.
  virtual double node_score() const = 0;
};

/// Shared construction context for a pipeline. Scans read the
/// block-resident lists through BlockListCursor. `mode` must be a resolved
/// mode (kSequential or kSeek) — engines run kAdaptive through
/// PlanPipelineCursorMode (eval/planner.h) before building. `cache`, when
/// set, is shared by every leaf scan of the pipeline (and across the
/// per-ordering pipelines of one NPRED query), so re-scanned hot blocks
/// decode once.
struct PipelineContext {
  const InvertedIndex* index = nullptr;
  const AlgebraScoreModel* model = nullptr;  // nullable
  EvalCounters* counters = nullptr;          // nullable
  CursorMode mode = CursorMode::kSequential;
  DecodedBlockCache* cache = nullptr;        // nullable, per-query
  /// Sticky decode-error slot (first error wins). Leaf scans copy their
  /// list cursor's status here when a lazily validated block fails its
  /// first-touch decode: the scan exhausts (failing closed, so the
  /// pipeline terminates normally) and RunPipeline checks this slot after
  /// draining, turning a silently truncated result into an error.
  Status* status = nullptr;  // nullable
  /// Optional wall-clock bound from the query's ExecContext. RunPipeline
  /// checks it every few thousand result nodes and stops early, reporting
  /// DeadlineExceeded through `status` — the same channel as lazily
  /// detected corruption, so engines already propagate it.
  const Deadline* deadline = nullptr;  // nullable
  /// Segment tombstones when the pipeline runs over one segment of a
  /// snapshot: leaf cursors filter deleted nodes, so no operator above
  /// them ever sees a tombstoned entry. Null on the standalone-index path.
  const TombstoneSet* tombstones = nullptr;  // nullable
};

/// Builds a pipelined cursor tree for `plan`. Returns Unsupported when the
/// plan contains operators outside the streaming subset (see file header).
StatusOr<std::unique_ptr<PosCursor>> BuildPipeline(const FtaExprPtr& plan,
                                                   const PipelineContext& ctx);

/// Builds the pipeline for `plan` and runs it to completion, appending
/// each matching node (and, when `ctx.model` is set, its score). Returns
/// Unsupported as BuildPipeline does, DeadlineExceeded when ctx's deadline
/// expires mid-drain (checked every few thousand result nodes), or the
/// first lazily detected decode error; `ctx.status` is ignored (the run
/// supplies its own slot).
Status RunPipeline(const FtaExprPtr& plan, PipelineContext ctx,
                   std::vector<NodeId>* nodes, std::vector<double>* scores);

}  // namespace fts

#endif  // FTS_EVAL_POS_CURSOR_H_

// ExecContext: the explicit per-query execution state of one evaluation.
//
// Before this layer existed, every engine's Evaluate() conjured its own
// per-query state ad hoc — a DecodedBlockCache on the stack, counters
// inside the result, no way to bound a query's runtime — which made the
// evaluation path impossible to reason about under concurrency and left
// nowhere to hang cross-query facilities. An ExecContext makes that state
// explicit and caller-owned:
//
//   - counters        cumulative EvalCounters for everything run under the
//                     context (engines additionally report the per-query
//                     delta in QueryResult::counters)
//   - L1 block cache  the per-query DecodedBlockCache, created once per
//                     context and attached to cursors when BlockCacheFor
//                     says it pays, instead of being re-constructed inside
//                     each engine
//   - L2 handle       an optional cross-query SharedBlockCache the L1
//                     falls through to (ExecOptions::shared_cache; one
//                     cache may serve every context of a service)
//   - deadline        an optional wall-clock bound; engines check it at
//                     operator granularity and return DeadlineExceeded
//
// Threading model: an ExecContext is single-threaded — one context, one
// thread, one query at a time. Contexts are cheap to create per query; a
// service worker may instead keep one context across queries (the L1 then
// acts as a worker-local warm cache over the same immutable index, which
// is safe for exactly the reason the L2 is: results never depend on cache
// state). The index, engines, Searcher, and L2 they reference are all safe
// to share across many contexts on many threads — see docs/threading.md.

#ifndef FTS_EXEC_EXEC_CONTEXT_H_
#define FTS_EXEC_EXEC_CONTEXT_H_

#include <chrono>
#include <utility>

#include "common/metrics.h"
#include "common/status.h"
#include "index/decoded_block_cache.h"
#include "index/shared_block_cache.h"

namespace fts {

/// Optional wall-clock bound on a query. Cheap to copy; unset by default.
/// Expiry checks are made at operator granularity (per BOOL/COMP operator,
/// per NPRED ordering, every few thousand pipelined nodes), so overruns are
/// bounded by one operator step, not detected mid-block.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `d` from now.
  static Deadline After(std::chrono::nanoseconds d) {
    Deadline out;
    out.at_ = std::chrono::steady_clock::now() + d;
    out.set_ = true;
    return out;
  }

  bool set() const { return set_; }

  bool Expired() const {
    return set_ && std::chrono::steady_clock::now() >= at_;
  }

  /// OK while unset or unexpired; DeadlineExceeded once past.
  Status Check() const {
    if (Expired()) return Status::DeadlineExceeded("query deadline expired");
    return Status::OK();
  }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool set_ = false;
};

/// Knobs an ExecContext is created with.
struct ExecOptions {
  /// Cross-query L2 the context's L1 falls through to (nullable; must
  /// outlive the context).
  SharedBlockCache* shared_cache = nullptr;
  /// Optional wall-clock bound; Deadline() means unbounded.
  Deadline deadline;
  /// Ranked-retrieval request: when nonzero, the Searcher returns only the
  /// top_k highest-scoring results (rank order; see Searcher::SearchParsed)
  /// and scored evaluation may terminate early via block-max skipping. 0 =
  /// full results, the pre-top-k behavior.
  size_t top_k = 0;
};

/// Per-query execution state threaded from the Searcher's caller (or a
/// SearchService worker) through the engines down to every cursor.
/// Single-threaded; see file header for the ownership and reuse rules.
class ExecContext {
 public:
  ExecContext() : ExecContext(ExecOptions()) {}
  explicit ExecContext(ExecOptions options)
      : options_(options),
        l1_(DecodedBlockCache::kDefaultCapacity, options.shared_cache) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Cumulative counters for everything evaluated under this context.
  /// Engines MergeFrom() their per-query counters here at the end of each
  /// Evaluate(); per-query deltas live in QueryResult::counters.
  EvalCounters& counters() { return counters_; }
  const EvalCounters& counters() const { return counters_; }

  SharedBlockCache* shared_cache() const { return options_.shared_cache; }

  const Deadline& deadline() const { return options_.deadline; }
  void set_deadline(Deadline d) { options_.deadline = d; }

  /// Requested result count for ranked retrieval; 0 = unranked/full.
  size_t top_k() const { return options_.top_k; }
  void set_top_k(size_t k) { options_.top_k = k; }

  /// The per-query (L1) block cache for an evaluation pass over `index`
  /// whose leaf scans read `reads`, or null when it does not pay
  /// (DecodedBlockCache::PaysFor). Every engine's one cache decision.
  DecodedBlockCache* BlockCacheFor(const InvertedIndex& index, LeafReads reads) {
    return l1_.PaysFor(index, std::move(reads)) ? &l1_ : nullptr;
  }

  /// Resets per-query state for reuse: zeroes the counters, empties the
  /// L1, and clears any deadline (a stale expired deadline would fail
  /// every later query instantly). A worker serving one index does NOT
  /// need this between queries — keeping the L1 warm is the point of
  /// reusing a context. Switching indexes (or snapshot generations) under
  /// one context is safe without a reset too: cache keys are
  /// process-unique list uids, never reused, so stale entries are dead
  /// weight that ages out of the LRU rather than a correctness hazard —
  /// reset anyway to reclaim their memory eagerly.
  void Reset() {
    counters_.Reset();
    l1_.Clear();
    options_.deadline = Deadline();
    options_.top_k = 0;
  }

 private:
  ExecOptions options_;
  EvalCounters counters_;
  DecodedBlockCache l1_;
};

}  // namespace fts

#endif  // FTS_EXEC_EXEC_CONTEXT_H_

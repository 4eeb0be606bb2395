// SearchService: concurrent query serving over immutable index snapshots.
//
// The paper's Section 5 engines are defined per query; the service is the
// layer that turns them into a multi-user serving system. One fixed pool
// of worker threads evaluates queries from a bounded submission queue. A
// worker acquires the current IndexSnapshot generation from the service's
// SnapshotSource at dequeue — an O(1) shared_ptr copy — and evaluates
// through a Searcher bound to that generation, so a query never observes a
// half-published index and old generations retire exactly when their last
// in-flight query drains. A static index is the degenerate case: the
// single-index constructor wraps it in a pinned one-segment snapshot. A
// cross-query SharedBlockCache attaches at service scope so hot blocks
// decode once per process (keys are process-unique list uids, safe across
// generations). Each worker owns one ExecContext for its lifetime — the
// per-query L1 cache then doubles as a worker-local warm cache.
//
// Flow control: the submission queue is bounded (Options::queue_capacity).
// Submit() blocks the producer when the queue is full (back-pressure);
// TrySubmit() instead fails fast with Unavailable, for callers that would
// rather shed load than wait. Results are delivered through
// std::future<StatusOr<RoutedResult>>.
//
// Metrics: the service aggregates every query's EvalCounters into one
// service-level total via EvalCounters::MergeFrom, plus queue and outcome
// tallies, all behind one mutex; metrics() returns an atomic snapshot
// (one consistent copy taken under the lock).
//
// Shutdown: Shutdown() (and the destructor) stops intake, drains every
// already-accepted query, and joins the workers — accepted work is never
// dropped. Submissions after shutdown fail with Unavailable.

#ifndef FTS_EXEC_SEARCH_SERVICE_H_
#define FTS_EXEC_SEARCH_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "eval/searcher.h"
#include "index/shared_block_cache.h"

namespace fts {

/// Point-in-time service health: outcome tallies, queue pressure, and the
/// merged evaluation counters of every completed query.
struct ServiceMetricsSnapshot {
  uint64_t submitted = 0;       ///< accepted into the queue
  uint64_t rejected = 0;        ///< refusals: TrySubmit on a full queue, or
                                ///< any submission after shutdown
  uint64_t completed = 0;       ///< evaluated successfully
  uint64_t failed = 0;          ///< evaluated to an error status
  uint64_t peak_queue_depth = 0;
  EvalCounters totals;          ///< MergeFrom of every query's counters
};

class SearchService {
 public:
  struct Options {
    /// Worker threads; 0 means hardware_concurrency (min 1).
    size_t num_workers = 0;
    /// Bounded submission queue depth; Submit blocks (TrySubmit refuses)
    /// when full.
    size_t queue_capacity = 1024;
    ScoringKind scoring = ScoringKind::kNone;
    CursorMode mode = CursorMode::kAdaptive;
    /// Cross-query L2 cache budget in blocks; 0 disables the L2 (per-query
    /// L1 caching only — the pre-service behavior per query).
    size_t shared_cache_blocks = 4096;
  };

  /// Serves whatever generation `source` currently publishes: each query
  /// acquires the snapshot at dequeue and holds it until it drains.
  /// `source` must outlive the service (an IngestService under live
  /// writes, or any other SnapshotSource).
  SearchService(const SnapshotSource* source, Options options);
  explicit SearchService(const SnapshotSource* source)
      : SearchService(source, Options()) {}

  /// Static-index convenience: serves `index` via a pinned one-segment
  /// snapshot. `index` must be fully loaded before construction and must
  /// outlive the service; it is never mutated through the service
  /// (immutable-after-load is what makes the whole read path lock-free
  /// outside the L2 shards).
  SearchService(const InvertedIndex* index, Options options);
  explicit SearchService(const InvertedIndex* index)
      : SearchService(index, Options()) {}

  /// Drains accepted work and joins the pool.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Per-request evaluation knobs, carried with the task to the worker.
  /// Everything defaults to "use the service's configuration" — the
  /// network layer is the caller that needs these (a remote client picks
  /// its own cursor mode, deadline, and top_k per request).
  struct RequestOptions {
    /// Ranked retrieval: the result holds only the top_k best nodes in
    /// rank order; 0 = full results.
    size_t top_k = 0;
    /// Cursor access mode for this query; nullopt = Options::mode.
    std::optional<CursorMode> mode;
    /// Deadline for this query, applied by the worker at dequeue; zero =
    /// unbounded.
    std::chrono::nanoseconds timeout{0};
  };

  /// Enqueues `query` for evaluation, blocking while the queue is full.
  /// The future resolves to the routed result, or to Unavailable if the
  /// service was shut down before (or while) the query could be accepted.
  /// `top_k` > 0 requests ranked retrieval: the result holds only the k
  /// best nodes in rank order (Searcher::SearchParsed), and scored
  /// selective queries may terminate early via block-max skipping; 0 (the
  /// default) returns full results, the pre-top-k behavior.
  std::future<StatusOr<RoutedResult>> Submit(std::string query,
                                             size_t top_k = 0);

  /// As above with the full per-request knob set.
  std::future<StatusOr<RoutedResult>> Submit(std::string query,
                                             RequestOptions options);

  /// Non-blocking enqueue: nullopt when the queue is full or the service
  /// is shut down (the refusal is tallied in metrics().rejected).
  std::optional<std::future<StatusOr<RoutedResult>>> TrySubmit(
      std::string query, size_t top_k = 0);

  /// As above with the full per-request knob set.
  std::optional<std::future<StatusOr<RoutedResult>>> TrySubmit(
      std::string query, RequestOptions options);

  /// Synchronous convenience: Submit + wait.
  StatusOr<RoutedResult> Search(std::string_view query, size_t top_k = 0);

  /// Batch API: enqueues every query, then waits for all; results are
  /// positionally aligned with `queries`. Queries evaluate concurrently
  /// across the pool, so a batch of B on W workers takes ~B/W serial
  /// evaluations of wall time. `top_k` applies to every query in the batch.
  std::vector<StatusOr<RoutedResult>> SearchBatch(
      const std::vector<std::string>& queries, size_t top_k = 0);

  /// One consistent copy of the service counters, taken under the metrics
  /// lock.
  ServiceMetricsSnapshot metrics() const;

  /// Instantaneous submission-queue depth — the congestion signal the
  /// admission controller (src/exec/admission.h) reads before deciding
  /// whether an expensive query may enqueue.
  size_t queue_depth() const;

  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Stops intake, drains every accepted query, joins the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  size_t num_workers() const { return workers_.size(); }
  /// The generation source queries are served from.
  const SnapshotSource& source() const { return *source_; }
  /// The service-scoped L2, or nullptr when disabled.
  const SharedBlockCache* shared_cache() const { return shared_cache_.get(); }

 private:
  struct Task {
    std::string query;
    /// Per-request knobs resolved against the service configuration by
    /// the worker (top_k rides in the context; mode/timeout override the
    /// service defaults when set).
    RequestOptions options;
    std::promise<StatusOr<RoutedResult>> promise;
  };

  static std::shared_ptr<SharedBlockCache> MakeSharedCache(const Options& options);

  /// Shared enqueue protocol of Submit/TrySubmit; see the definition.
  bool Enqueue(Task task, bool block);

  /// Shared tail of both constructors: spawns the worker pool.
  void StartWorkers();

  void WorkerLoop();

  Options options_;
  std::shared_ptr<SharedBlockCache> shared_cache_;
  /// Set by the static-index constructor; null when the caller supplied
  /// its own SnapshotSource.
  std::unique_ptr<StaticSnapshotSource> owned_source_;
  const SnapshotSource* source_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Task> queue_;
  bool shutdown_ = false;

  mutable std::mutex metrics_mu_;
  ServiceMetricsSnapshot metrics_;

  std::mutex shutdown_mu_;  // serializes Shutdown callers
  std::vector<std::thread> workers_;
};

}  // namespace fts

#endif  // FTS_EXEC_SEARCH_SERVICE_H_

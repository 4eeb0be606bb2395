#include "exec/search_service.h"

#include <algorithm>
#include <utility>

namespace fts {

std::shared_ptr<SharedBlockCache> SearchService::MakeSharedCache(
    const Options& options) {
  if (options.shared_cache_blocks == 0) return nullptr;
  SharedBlockCache::Options cache_options;
  cache_options.capacity_blocks = options.shared_cache_blocks;
  return std::make_shared<SharedBlockCache>(cache_options);
}

SearchService::SearchService(const SnapshotSource* source, Options options)
    : options_(options),
      shared_cache_(MakeSharedCache(options)),
      source_(source) {
  StartWorkers();
}

SearchService::SearchService(const InvertedIndex* index, Options options)
    : options_(options),
      shared_cache_(MakeSharedCache(options)),
      owned_source_(std::make_unique<StaticSnapshotSource>(
          IndexSnapshot::ForIndex(index))),
      source_(owned_source_.get()) {
  StartWorkers();
}

void SearchService::StartWorkers() {
  size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SearchService::~SearchService() { Shutdown(); }

/// The one enqueue protocol behind Submit (block = back-pressure) and
/// TrySubmit (fail fast). On refusal — shutdown, or a full queue in the
/// non-blocking mode — the task's promise is fulfilled with Unavailable
/// (so a returned future never dangles), the refusal is tallied, and
/// false is returned.
bool SearchService::Enqueue(Task task, bool block) {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (block) {
      queue_not_full_.wait(lock, [this] {
        return shutdown_ || queue_.size() < options_.queue_capacity;
      });
    }
    if (shutdown_ || (!block && queue_.size() >= options_.queue_capacity)) {
      task.promise.set_value(Status::Unavailable("SearchService is shut down"));
      std::lock_guard<std::mutex> mlock(metrics_mu_);
      ++metrics_.rejected;
      return false;
    }
    queue_.push_back(std::move(task));
    const uint64_t depth = queue_.size();
    {
      std::lock_guard<std::mutex> mlock(metrics_mu_);
      ++metrics_.submitted;
      metrics_.peak_queue_depth = std::max(metrics_.peak_queue_depth, depth);
    }
  }
  queue_not_empty_.notify_one();
  return true;
}

std::future<StatusOr<RoutedResult>> SearchService::Submit(std::string query,
                                                          size_t top_k) {
  RequestOptions options;
  options.top_k = top_k;
  return Submit(std::move(query), options);
}

std::future<StatusOr<RoutedResult>> SearchService::Submit(
    std::string query, RequestOptions options) {
  Task task;
  task.query = std::move(query);
  task.options = options;
  std::future<StatusOr<RoutedResult>> future = task.promise.get_future();
  Enqueue(std::move(task), /*block=*/true);
  return future;
}

std::optional<std::future<StatusOr<RoutedResult>>> SearchService::TrySubmit(
    std::string query, size_t top_k) {
  RequestOptions options;
  options.top_k = top_k;
  return TrySubmit(std::move(query), options);
}

std::optional<std::future<StatusOr<RoutedResult>>> SearchService::TrySubmit(
    std::string query, RequestOptions options) {
  Task task;
  task.query = std::move(query);
  task.options = options;
  std::future<StatusOr<RoutedResult>> future = task.promise.get_future();
  if (!Enqueue(std::move(task), /*block=*/false)) return std::nullopt;
  return future;
}

StatusOr<RoutedResult> SearchService::Search(std::string_view query,
                                             size_t top_k) {
  return Submit(std::string(query), top_k).get();
}

std::vector<StatusOr<RoutedResult>> SearchService::SearchBatch(
    const std::vector<std::string>& queries, size_t top_k) {
  std::vector<std::future<StatusOr<RoutedResult>>> futures;
  futures.reserve(queries.size());
  for (const std::string& q : queries) futures.push_back(Submit(q, top_k));
  std::vector<StatusOr<RoutedResult>> out;
  out.reserve(queries.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

ServiceMetricsSnapshot SearchService::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  return metrics_;
}

size_t SearchService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void SearchService::Shutdown() {
  // Serialize overlapping Shutdown calls (destructor vs explicit): only
  // one joins the pool; later calls see the empty worker vector.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  // Wake everyone: workers drain the remaining queue, blocked producers
  // observe the shutdown and fail their submissions.
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void SearchService::WorkerLoop() {
  // One context for the worker's lifetime: its L1 cache stays warm across
  // queries (uid keys stay valid across generations), and its counters
  // accumulate harmlessly — per-query counters are reported via each
  // result, and service totals are merged per query below.
  ExecOptions exec_options;
  exec_options.shared_cache = shared_cache_.get();
  ExecContext ctx(exec_options);
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_not_empty_.wait(lock,
                            [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();

    // Per-request knobs, set unconditionally because the context is reused
    // across queries — a stale deadline or top_k from a previous query must
    // never leak into the next one.
    ctx.set_deadline(task.options.timeout.count() > 0
                         ? Deadline::After(task.options.timeout)
                         : Deadline());
    ctx.set_top_k(task.options.top_k);
    // Acquire the current generation for exactly this query: the snapshot
    // (and every segment it references) stays alive until the Searcher is
    // destroyed, even if a writer publishes a newer generation mid-query.
    Searcher searcher(
        source_->snapshot(),
        SearcherOptions{options_.scoring,
                        task.options.mode.value_or(options_.mode)});
    StatusOr<RoutedResult> result = searcher.Search(task.query, ctx);

    {
      std::lock_guard<std::mutex> mlock(metrics_mu_);
      if (result.ok()) {
        ++metrics_.completed;
        metrics_.totals.MergeFrom(result->result.counters);
      } else {
        ++metrics_.failed;
      }
    }
    task.promise.set_value(std::move(result));
  }
}

}  // namespace fts

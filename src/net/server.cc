#include "net/server.h"

#include "common/metrics.h"
#include "index/shared_block_cache.h"

namespace fts {
namespace net {

namespace {

/// Single segment, no tombstones: Create fails only on a null segment, so
/// the .value() below is safe, and the segment scores from the index's
/// own record.
std::shared_ptr<const IndexSnapshot> InitialSnapshot(
    std::shared_ptr<const InvertedIndex> index) {
  return IndexSnapshot::Create({std::move(index)}).value();
}

}  // namespace

FtsServer::FtsServer(std::shared_ptr<const InvertedIndex> index,
                     Options options)
    : options_(std::move(options)),
      index_(std::move(index)),
      source_(InitialSnapshot(index_)),
      service_(std::make_unique<SearchService>(&source_, options_.service)),
      admission_(std::make_unique<AdmissionController>(options_.admission)),
      loop_({[this](MessageType type, const std::string& payload) {
               return HandleFrame(type, payload);
             },
             [this] { return MetricsText(); },
             [] { return Status::OK(); }}) {}

Status FtsServer::Start() {
  return loop_.Start(options_.port, options_.loopback_only,
                     options_.max_frame_bytes);
}

void FtsServer::Stop() {
  // The loop's writers drain their slots first — pending search futures
  // resolve because the service workers are still running there.
  loop_.Stop();
  service_->Shutdown();
}

std::optional<ConnectionLoop::Reply> FtsServer::HandleFrame(
    MessageType type, const std::string& payload) {
  switch (type) {
    case MessageType::kSearchRequest: {
      SearchRequest req;
      if (!DecodeSearchRequest(payload, &req).ok()) return std::nullopt;
      return HandleSearch(req);
    }
    case MessageType::kPingRequest: {
      PingRequest req;
      if (!DecodePingRequest(payload, &req).ok()) return std::nullopt;
      const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
      PingResponse resp;
      resp.request_id = req.request_id;
      resp.server_name = options_.name;
      resp.num_nodes = snap->total_nodes();
      resp.generation = snap->generation();
      return ConnectionLoop::Reply(EncodePingResponse(resp));
    }
    case MessageType::kStatsRequest: {
      StatsRequest req;
      if (!DecodeStatsRequest(payload, &req).ok()) return std::nullopt;
      const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
      StatsResponse resp;
      resp.request_id = req.request_id;
      resp.num_nodes = snap->total_nodes();
      // Local df by token text: the router sums them into
      // the global table. Every snapshot this server publishes has one
      // segment, index_, without tombstones.
      std::unordered_map<std::string, uint32_t> df;
      if (!AddLiveDfByText(*index_, nullptr, &df).ok()) return std::nullopt;
      resp.df_by_text.assign(df.begin(), df.end());
      return ConnectionLoop::Reply(EncodeStatsResponse(resp));
    }
    case MessageType::kSetGlobalStatsRequest: {
      SetGlobalStatsRequest req;
      if (!DecodeSetGlobalStatsRequest(payload, &req).ok()) return std::nullopt;
      std::unordered_map<std::string, uint32_t> df;
      df.reserve(req.df_by_text.size());
      for (const auto& [text, d] : req.df_by_text) df[text] += d;
      SetGlobalStatsResponse resp;
      resp.request_id = req.request_id;
      StatusOr<std::shared_ptr<const IndexSnapshot>> snap =
          IndexSnapshot::CreateSharded(index_, req.global_live_nodes,
                                       std::move(df),
                                       generation_.fetch_add(1) + 1);
      if (snap.ok()) {
        source_.Publish(std::move(snap).value());
      } else {
        resp.status = snap.status();
      }
      return ConnectionLoop::Reply(EncodeSetGlobalStatsResponse(resp));
    }
    default:
      // A type this server cannot serve: there is no response layout to
      // answer with, so the stream is dead weight — drop the connection.
      return std::nullopt;
  }
}

ConnectionLoop::Reply FtsServer::HandleSearch(const SearchRequest& req) {
  SearchResponse resp;
  resp.request_id = req.request_id;
  if (options_.admission.max_cost > 0) {
    // Cost the query before it touches the queue; under pressure the
    // expensive ones are answered Unavailable right here.
    const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
    StatusOr<AdmissionDecision> verdict =
        admission_->Assess(req.query, *snap, service_->queue_depth(),
                           service_->queue_capacity());
    if (!verdict.ok()) {
      // Parse failure — the same error the worker would produce, without
      // spending a queue slot on it.
      resp.status = verdict.status();
      return ConnectionLoop::Reply(EncodeSearchResponse(resp));
    }
    if (!verdict->admit) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++shed_queries_;
      }
      resp.status = Status::Unavailable(
          "shed by admission control (estimated cost " +
          std::to_string(verdict->cost) + ")");
      return ConnectionLoop::Reply(EncodeSearchResponse(resp));
    }
  }
  SearchService::RequestOptions opts;
  opts.top_k = req.top_k;
  opts.mode = ToCursorMode(req.mode);
  if (req.deadline_us > 0) {
    opts.timeout = std::chrono::microseconds(req.deadline_us);
  }
  // Submit blocks under back-pressure, which throttles this connection's
  // reader — intake slows instead of the queue growing without bound. The
  // writer waits the future in slot order: responses leave in request
  // order even though the pool may complete them out of order.
  auto pending = std::make_shared<std::future<StatusOr<RoutedResult>>>(
      service_->Submit(req.query, opts));
  return ConnectionLoop::Reply(
      [pending, resp = std::move(resp)]() mutable {
        StatusOr<RoutedResult> result = pending->get();
        if (result.ok()) {
          resp.language_class = result->language_class;
          resp.engine = result->engine;
          resp.nodes.assign(result->result.nodes.begin(),
                            result->result.nodes.end());
          resp.scores = std::move(result->result.scores);
          resp.counters = result->result.counters;
        } else {
          resp.status = result.status();
        }
        return EncodeSearchResponse(resp);
      });
}

std::string FtsServer::MetricsText() const {
  const ServiceMetricsSnapshot m = service_->metrics();
  const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
  std::string out = "# fts server \"" + options_.name + "\"\n";
  const auto line = [&out](std::string_view key, uint64_t value) {
    AppendMetric(&out, key, value);
  };
  line("fts_up", 1);
  line("fts_generation", snap->generation());
  line("fts_total_nodes", snap->total_nodes());
  line("fts_live_nodes", snap->live_nodes());
  uint64_t resident_bytes = 0, lists = 0;
  for (const SegmentView& seg : snap->segments()) {
    resident_bytes += seg.index->MemoryUsage();
    lists += seg.index->num_lists();
  }
  line("fts_index_resident_bytes", resident_bytes);
  line("fts_index_lists", lists);
  line("fts_workers", service_->num_workers());
  line("fts_queue_depth", service_->queue_depth());
  line("fts_queue_capacity", service_->queue_capacity());
  line("fts_queries_submitted", m.submitted);
  line("fts_queries_completed", m.completed);
  line("fts_queries_failed", m.failed);
  line("fts_queries_rejected", m.rejected);
  line("fts_peak_queue_depth", m.peak_queue_depth);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    line("fts_queries_shed", shed_queries_);
  }
  loop_.AppendMetrics(&out);
  const EvalCounters& c = m.totals;
#define FTS_COUNTER_LINE(field, label) line("fts_eval_" #field, c.field);
  FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_LINE)
#undef FTS_COUNTER_LINE
  if (const SharedBlockCache* l2 = service_->shared_cache()) {
    const SharedBlockCache::Stats s = l2->stats();
    line("fts_l2_cache_evictions", s.evictions);
    line("fts_l2_cache_resident_blocks", s.resident_blocks);
    line("fts_l2_cache_resident_bytes", s.resident_bytes);
    for (size_t i = 0; i < s.shards.size(); ++i) {
      const std::string suffix = "{shard=\"" + std::to_string(i) + "\"}";
      line("fts_l2_cache_shard_keys" + suffix, s.shards[i].keys);
      line("fts_l2_cache_shard_bytes" + suffix, s.shards[i].bytes);
    }
  }
  return out;
}

}  // namespace net
}  // namespace fts

#include "net/shard_router.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace fts {
namespace net {
namespace {

/// When a wait on replies sent now stops: `timeout` from now, or never
/// when it is zero.
using GiveUp = std::optional<std::chrono::steady_clock::time_point>;

GiveUp GiveUpAfter(std::chrono::milliseconds timeout) {
  if (timeout.count() == 0) return std::nullopt;
  return std::chrono::steady_clock::now() + timeout;
}

/// The reply to call `id` on `client`, or DeadlineExceeded when it is not
/// in by `give_up`; its slot is then abandoned (left, it would stay in
/// flight for the connection's lifetime).
template <typename Resp>
StatusOr<Resp> AwaitReply(FtsClient& client, uint64_t id,
                          std::future<StatusOr<Resp>>& reply, const GiveUp& give_up) {
  if (!give_up.has_value() || reply.wait_until(*give_up) == std::future_status::ready) {
    return reply.get();
  }
  client.Abandon(id);
  return Status::DeadlineExceeded("net: no reply within the shard call timeout");
}

}  // namespace

ShardRouter::ShardRouter(Options options) : options_(std::move(options)) {}

Status ShardRouter::Connect() {
  clients_.clear();
  total_nodes_ = 0;
  std::vector<ShardHealth> health(options_.shards.size());
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    const ShardAddress& addr = options_.shards[i];
    FtsClient::Options copts;
    copts.host = addr.host;
    copts.port = addr.port;
    copts.connect_timeout = options_.connect_timeout;
    copts.call_timeout = options_.call_timeout;
    auto client = std::make_unique<FtsClient>(copts);
    StatusOr<PingResponse> ping = client->Ping();
    if (!ping.ok()) {
      return Status(ping.status().code(),
                    "shard " + std::to_string(i) + " (" + addr.host + ":" +
                        std::to_string(addr.port) +
                        "): " + ping.status().message());
    }
    ShardHealth& h = health[i];
    h.address = addr;
    h.name = ping->server_name;
    h.alive = true;
    h.num_nodes = ping->num_nodes;
    h.generation = ping->generation;
    // Prefix-sum bases: shard i's local node n is global node base + n —
    // the segment id-base scheme, across processes.
    h.base = total_nodes_;
    total_nodes_ += ping->num_nodes;
    clients_.push_back(std::move(client));
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  health_ = std::move(health);
  return Status::OK();
}

Status ShardRouter::ExchangeGlobalStats() {
  if (clients_.empty()) return Status::Unavailable("router not connected");
  const size_t shards = clients_.size();
  // Each step sends to every shard before waiting on any (pipelined, as
  // Scatter is), so it costs the slowest shard rather than their sum, and
  // each request is encoded and freed in turn rather than all at once.
  std::vector<uint64_t> ids(shards);
  // Gather: every shard's local df table and node count, summed. The
  // replies and the summing map are freed before the scatter.
  uint64_t global_live_nodes = 0;
  std::vector<std::pair<std::string, uint32_t>> table;
  {
    std::vector<std::future<StatusOr<StatsResponse>>> pending;
    for (size_t i = 0; i < shards; ++i) pending.push_back(clients_[i]->StatsAsync(&ids[i]));
    const GiveUp give_up = GiveUpAfter(options_.call_timeout);
    std::vector<StatusOr<StatsResponse>> replies;
    for (size_t i = 0; i < shards; ++i) {
      replies.push_back(AwaitReply(*clients_[i], ids[i], pending[i], give_up));
    }
    std::unordered_map<std::string, uint32_t> df;
    for (size_t i = 0; i < shards; ++i) {
      if (!replies[i].ok()) {
        const Status& s = replies[i].status();
        return Status(s.code(), "shard " + std::to_string(i) + " stats: " + s.message());
      }
      global_live_nodes += replies[i]->num_nodes;
      for (const auto& [text, d] : replies[i]->df_by_text) df[text] += d;
    }
    table.assign(df.begin(), df.end());
  }
  // Scatter: the summed table back to every shard, which rebuilds its
  // snapshot under corpus-global idf (IndexSnapshot::CreateSharded).
  std::vector<std::future<StatusOr<SetGlobalStatsResponse>>> pending;
  for (size_t i = 0; i < shards; ++i) {
    pending.push_back(clients_[i]->SetGlobalStatsAsync(global_live_nodes, table, &ids[i]));
  }
  const GiveUp give_up = GiveUpAfter(options_.call_timeout);
  Status failure;
  for (size_t i = 0; i < shards; ++i) {
    StatusOr<SetGlobalStatsResponse> resp = AwaitReply(*clients_[i], ids[i], pending[i], give_up);
    const Status s = resp.ok() ? resp->status : resp.status();
    if (!s.ok() && failure.ok()) {
      failure = Status(s.code(), "shard " + std::to_string(i) +
                                     " set-global-stats: " + s.message());
    }
  }
  return failure;
}

ShardRouter::PendingSearch ShardRouter::Scatter(std::string_view query,
                                               uint32_t top_k,
                                               WireCursorMode mode,
                                               uint64_t deadline_us) {
  PendingSearch pending;
  pending.top_k = top_k;
  pending.give_up = GiveUpAfter(SearchWait(options_.call_timeout, deadline_us));
  // The same request to every shard, pipelined — responses are matched by
  // id, so the fan-out runs concurrently over N connections.
  pending.request_ids.resize(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    SearchRequest req;
    req.query = std::string(query);
    req.top_k = top_k;
    req.mode = mode;
    req.deadline_us = deadline_us;
    pending.replies.push_back(
        clients_[i]->SearchAsync(std::move(req), &pending.request_ids[i]));
  }
  return pending;
}

StatusOr<SearchResponse> ShardRouter::Search(std::string_view query,
                                             uint32_t top_k,
                                             WireCursorMode mode,
                                             uint64_t deadline_us) {
  return Gather(Scatter(query, top_k, mode, deadline_us));
}

StatusOr<SearchResponse> ShardRouter::Gather(PendingSearch pending) {
  if (pending.replies.empty()) return Status::Unavailable("router not connected");
  const uint32_t top_k = pending.top_k;
  // Wait for every shard, even after a failure, and abandon a shard's slot
  // when it does not answer in time (leaving it would leak an in-flight
  // slot for the connection's lifetime).
  std::vector<SearchResponse> parts(pending.replies.size());
  Status failure;
  for (size_t i = 0; i < pending.replies.size(); ++i) {
    StatusOr<SearchResponse> part = AwaitReply(*clients_[i], pending.request_ids[i],
                                               pending.replies[i], pending.give_up);
    const Status s = part.ok() ? part->status : part.status();
    if (!s.ok()) {
      if (failure.ok()) {
        failure = Status(s.code(),
                         "shard " + std::to_string(i) + ": " + s.message());
      }
      if (!part.ok()) {
        std::lock_guard<std::mutex> lock(health_mu_);
        if (i < health_.size()) health_[i].alive = false;
      }
      continue;
    }
    parts[i] = std::move(part).value();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++queries_routed_;
    if (!failure.ok()) ++queries_failed_;
  }
  // All shards must answer: a partial merge would silently drop a doc-id
  // range, violating the bit-identical contract.
  FTS_RETURN_IF_ERROR(failure);

  SearchResponse out;
  out.language_class = parts[0].language_class;
  out.engine = parts[0].engine;
  bool scored = false, unscored = false;
  for (const SearchResponse& p : parts) {
    out.counters.MergeFrom(p.counters);
    scored |= !p.scores.empty();
    unscored |= !p.nodes.empty() && p.scores.empty();
  }
  if (scored && unscored) {
    return Status::Internal(
        "inconsistent shard configuration: mixed scored and unscored "
        "responses");
  }

  std::vector<ShardHealth> bases = health();
  if (scored && top_k > 0) {
    // Global top-k from the union of per-shard top-k's, under the same
    // total order (score desc, id asc) TopKAccumulator ranks by.
    struct Hit {
      double score;
      WireNodeId id;
    };
    std::vector<Hit> hits;
    for (size_t i = 0; i < parts.size(); ++i) {
      for (size_t j = 0; j < parts[i].nodes.size(); ++j) {
        hits.push_back(Hit{parts[i].scores[j], bases[i].base + parts[i].nodes[j]});
      }
    }
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    if (hits.size() > top_k) hits.resize(top_k);
    out.nodes.reserve(hits.size());
    out.scores.reserve(hits.size());
    for (const Hit& h : hits) {
      out.nodes.push_back(h.id);
      out.scores.push_back(h.score);
    }
  } else {
    // Concatenate in shard order: per-shard ascending plus increasing
    // disjoint bases = globally ascending.
    for (size_t i = 0; i < parts.size(); ++i) {
      for (const WireNodeId n : parts[i].nodes) {
        out.nodes.push_back(bases[i].base + n);
      }
      out.scores.insert(out.scores.end(), parts[i].scores.begin(),
                        parts[i].scores.end());
    }
    if (top_k > 0 && out.nodes.size() > top_k) {
      // Unscored top-k ranks by the id tie-break alone, so the global
      // first k is the first k of the concatenation.
      out.nodes.resize(top_k);
      if (!out.scores.empty()) out.scores.resize(top_k);
    }
  }
  return out;
}

std::vector<ShardHealth> ShardRouter::Probe() {
  std::vector<ShardHealth> health = this->health();
  for (size_t i = 0; i < clients_.size() && i < health.size(); ++i) {
    StatusOr<PingResponse> ping = clients_[i]->Ping();
    health[i].alive = ping.ok();
    if (ping.ok()) {
      health[i].name = ping->server_name;
      health[i].num_nodes = ping->num_nodes;
      health[i].generation = ping->generation;
    }
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_ = health;
  }
  return health;
}

std::vector<ShardHealth> ShardRouter::health() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_;
}

std::string ShardRouter::MetricsText() const {
  std::string out = "# fts router over " + std::to_string(clients_.size()) +
                    " shard(s)\n";
  const auto line = [&out](std::string_view key, uint64_t value) {
    AppendMetric(&out, key, value);
  };
  line("fts_up", 1);
  line("fts_router_shards", clients_.size());
  line("fts_router_total_nodes", total_nodes_);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    line("fts_router_queries_routed", queries_routed_);
    line("fts_router_queries_failed", queries_failed_);
  }
  for (const ShardHealth& h : health()) {
    const std::string label = "{shard=\"" + h.name + "\",addr=\"" +
                              h.address.host + ":" +
                              std::to_string(h.address.port) + "\"}";
    line("fts_shard_alive" + label, h.alive ? 1 : 0);
    line("fts_shard_nodes" + label, h.num_nodes);
    line("fts_shard_base" + label, h.base);
    line("fts_shard_generation" + label, h.generation);
  }
  return out;
}

// --- RouterServer --------------------------------------------------------

RouterServer::RouterServer(ShardRouter* router, Options options)
    : options_(std::move(options)),
      router_(router),
      loop_({[this](MessageType type, const std::string& payload) {
               return HandleFrame(type, payload);
             },
             [this] { return MetricsText(); },
             [this] {
               // Live probe: the health endpoint tells the truth about the
               // shards right now, not at the last query.
               for (const ShardHealth& h : router_->Probe()) {
                 if (!h.alive) {
                   return Status::Unavailable(
                       "shard down: " + h.address.host + ":" +
                       std::to_string(h.address.port));
                 }
               }
               return Status::OK();
             }}) {}

Status RouterServer::Start() {
  return loop_.Start(options_.port, options_.loopback_only,
                     options_.max_frame_bytes);
}

std::string RouterServer::MetricsText() const {
  std::string out = router_->MetricsText();
  loop_.AppendMetrics(&out);
  return out;
}

std::optional<ConnectionLoop::Reply> RouterServer::HandleFrame(
    MessageType type, const std::string& payload) {
  switch (type) {
    case MessageType::kSearchRequest: {
      SearchRequest req;
      if (!DecodeSearchRequest(payload, &req).ok()) return std::nullopt;
      // Scatter here on the reader; the writer gathers in slot order, so
      // the next request's fan-out overlaps this one's.
      auto pending = std::make_shared<ShardRouter::PendingSearch>(
          router_->Scatter(req.query, req.top_k, req.mode, req.deadline_us));
      return ConnectionLoop::Reply(
          [this, pending, id = req.request_id] {
            StatusOr<SearchResponse> routed =
                router_->Gather(std::move(*pending));
            SearchResponse resp;
            if (routed.ok()) {
              resp = std::move(routed).value();
            } else {
              resp.status = routed.status();
            }
            resp.request_id = id;
            return EncodeSearchResponse(resp);
          });
    }
    case MessageType::kPingRequest: {
      PingRequest req;
      if (!DecodePingRequest(payload, &req).ok()) return std::nullopt;
      PingResponse resp;
      resp.request_id = req.request_id;
      resp.server_name = options_.name;
      resp.num_nodes = router_->total_nodes();
      return ConnectionLoop::Reply(EncodePingResponse(resp));
    }
    default:
      // Shard-administration messages (stats exchange) and unknown types
      // are not served here.
      return std::nullopt;
  }
}

}  // namespace net
}  // namespace fts

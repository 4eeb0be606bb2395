// ShardRouter: scatter-gather search over document-partitioned shards
// (docs/serving.md).
//
// The corpus is split into contiguous doc-id ranges, one per shard server
// (Corpus::Slice + fts_build_index --shards). The router pings every shard
// and assigns bases by prefix sum of their node counts — shard i's local
// node n is global node base_i + n — the id scheme IndexSnapshot uses for
// segments, with shards as segments across processes.
//
// Exactness: after ExchangeGlobalStats(), a routed query answers
// bit-identically to a single-index run over the unsplit corpus — nodes,
// score bits and merged counters. Full results concatenate in shard order;
// scored top-k re-ranks the union of per-shard top-k's under the same
// (score desc, id asc) order. docs/serving.md has the argument.
//
// RouterServer serves a ShardRouter on the same ConnectionLoop, wire
// protocol and HTTP endpoints as FtsServer, so a client cannot tell a
// router from a single big server (shard-administration messages
// excepted); /healthz degrades to 503 when any shard is down.

#ifndef FTS_NET_SHARD_ROUTER_H_
#define FTS_NET_SHARD_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/connection_loop.h"
#include "net/wire.h"

namespace fts {
namespace net {

struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Point-in-time view of one shard, from the most recent probe.
struct ShardHealth {
  ShardAddress address;
  std::string name;
  bool alive = false;
  uint64_t num_nodes = 0;
  uint64_t generation = 0;
  /// Global id of this shard's local node 0.
  uint64_t base = 0;
};

class ShardRouter {
 public:
  struct Options {
    std::vector<ShardAddress> shards;
    std::chrono::milliseconds connect_timeout{5000};
    std::chrono::milliseconds call_timeout{30000};
  };

  explicit ShardRouter(Options options);

  /// Pings every shard and assigns doc-id bases by prefix sum of shard
  /// node counts, in configured shard order. Must succeed before Search.
  Status Connect();

  /// Collects every shard's local df table, sums them into the corpus
  /// global, and pushes the aggregate back to every shard (each step
  /// pipelined to all shards at once) — after which
  /// shard scores are bit-identical to a single-index run. Required once
  /// (per generation) when shards serve a scored configuration; a no-op
  /// corpus-wise for unscored serving.
  Status ExchangeGlobalStats();

  /// A routed search in flight: one pending reply per shard.
  struct PendingSearch {
    uint32_t top_k = 0;
    /// When Gather stops waiting: call_timeout (plus the request's own
    /// deadline) after Scatter; none when call_timeout is zero.
    std::optional<std::chrono::steady_clock::time_point> give_up;
    std::vector<uint64_t> request_ids;
    std::vector<std::future<StatusOr<SearchResponse>>> replies;
  };

  /// Sends the request to every shard, pipelined on each shard's
  /// connection, and returns without waiting.
  PendingSearch Scatter(std::string_view query, uint32_t top_k = 0,
                        WireCursorMode mode = WireCursorMode::kDefault,
                        uint64_t deadline_us = 0);

  /// Waits for every shard's reply and merges them; see the file comment
  /// for the exactness argument. All shards must answer — any shard
  /// failure fails the query (a partial answer would silently violate
  /// exactness). A shard that has not answered by `give_up` fails it with
  /// DeadlineExceeded.
  StatusOr<SearchResponse> Gather(PendingSearch pending);

  /// Gather(Scatter(...)), for in-process callers.
  StatusOr<SearchResponse> Search(std::string_view query, uint32_t top_k = 0,
                                  WireCursorMode mode = WireCursorMode::kDefault,
                                  uint64_t deadline_us = 0);

  /// Re-pings every shard, refreshing the liveness view.
  std::vector<ShardHealth> Probe();

  /// The liveness view from the last Connect/Probe (no network traffic).
  std::vector<ShardHealth> health() const;

  /// Sum of shard node counts (the global id space), valid after Connect.
  uint64_t total_nodes() const { return total_nodes_; }

  size_t num_shards() const { return clients_.size(); }

  /// Plain-text metrics for the router's /metrics endpoint.
  std::string MetricsText() const;

 private:
  Options options_;
  std::vector<std::unique_ptr<FtsClient>> clients_;
  uint64_t total_nodes_ = 0;

  mutable std::mutex health_mu_;
  std::vector<ShardHealth> health_;

  mutable std::mutex stats_mu_;
  uint64_t queries_routed_ = 0;
  uint64_t queries_failed_ = 0;
};

/// Serves a ShardRouter behind the wire protocol on a ConnectionLoop. A
/// connection's reader scatters each search and its writer gathers and
/// merges the replies in request order, so routed queries pipeline on one
/// connection the way they do on a shard server. Speaks the same HTTP
/// /metrics and /healthz dialect as FtsServer; shard-administration
/// messages (stats exchange) are not served and drop the connection.
class RouterServer {
 public:
  struct Options {
    uint16_t port = 0;
    bool loopback_only = true;
    std::string name = "fts-router";
    uint32_t max_frame_bytes = kMaxFrameBytes;
  };

  /// `router` must be Connect()ed and must outlive the server.
  RouterServer(ShardRouter* router, Options options);

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  Status Start();
  void Stop() { loop_.Stop(); }
  uint16_t port() const { return loop_.port(); }

  /// The router's metrics plus this server's connection tallies: the
  /// body of /metrics and of the binary Metrics message.
  std::string MetricsText() const;

 private:
  std::optional<ConnectionLoop::Reply> HandleFrame(MessageType type,
                                                   const std::string& payload);

  Options options_;
  ShardRouter* router_;
  ConnectionLoop loop_;
};

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_SHARD_ROUTER_H_

// FtsServer: the network front of one index shard (docs/serving.md).
//
// The server wraps a SearchService behind the binary protocol of
// net/wire.h on the shared ConnectionLoop (net/connection_loop.h). A
// connection's reader submits each search to the service — pipelined
// requests fan out across the whole worker pool — and its writer waits the
// futures in request order. Admission control runs on the reader, before a
// search takes a queue slot. Control messages are answered with ready
// frames.
//
// Sharding: a scatter-gather router (net/shard_router.h) calls Stats to
// collect this shard's local document frequencies, then SetGlobalStats to
// push the cross-shard aggregate back; the server rebuilds its snapshot
// with IndexSnapshot::CreateSharded and publishes it as a new generation.
// In-flight queries keep the generation they acquired at dequeue; after
// the swap, this shard's scores are bit-identical to the corresponding
// rows of a single-index run over the full corpus.

#ifndef FTS_NET_SERVER_H_
#define FTS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "exec/admission.h"
#include "exec/search_service.h"
#include "index/index_snapshot.h"
#include "net/connection_loop.h"
#include "net/wire.h"

namespace fts {
namespace net {

/// A SnapshotSource whose generation can be republished while a service
/// serves from it: SetGlobalStats swaps in the sharded snapshot under a
/// mutex, queries in flight keep the shared_ptr they already acquired.
class ServingSnapshotSource : public SnapshotSource {
 public:
  explicit ServingSnapshotSource(std::shared_ptr<const IndexSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const IndexSnapshot> snapshot() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  void Publish(std::shared_ptr<const IndexSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(snapshot);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
};

class FtsServer {
 public:
  struct Options {
    /// TCP port; 0 binds an ephemeral port (read it back via port()).
    uint16_t port = 0;
    /// Bind 127.0.0.1 only (tests, single-host deployments) vs 0.0.0.0.
    bool loopback_only = true;
    /// Reported in ping responses and /metrics.
    std::string name = "fts";
    SearchService::Options service;
    AdmissionOptions admission;
    uint32_t max_frame_bytes = kMaxFrameBytes;
  };

  /// Serves `index` (shared ownership; also the segment a SetGlobalStats
  /// rebuild re-wraps). The server is idle until Start().
  FtsServer(std::shared_ptr<const InvertedIndex> index, Options options);

  FtsServer(const FtsServer&) = delete;
  FtsServer& operator=(const FtsServer&) = delete;

  /// Binds, listens, and spawns the acceptor. Fails (without spawning
  /// anything) if the port cannot be bound.
  Status Start();

  /// Stops intake, wakes every connection, joins all threads, drains the
  /// service. Idempotent; destruction does the same, in member order.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return loop_.port(); }

  const SearchService& service() const { return *service_; }

  /// The plain-text body /metrics serves; exposed for the binary Metrics
  /// message and for tests.
  std::string MetricsText() const;

 private:
  /// Decodes and dispatches one binary frame; nullopt poisons the stream
  /// (undecodable frame) and makes the loop drop the connection.
  std::optional<ConnectionLoop::Reply> HandleFrame(MessageType type,
                                                   const std::string& payload);
  ConnectionLoop::Reply HandleSearch(const SearchRequest& req);

  Options options_;
  std::shared_ptr<const InvertedIndex> index_;
  ServingSnapshotSource source_;
  std::unique_ptr<SearchService> service_;
  std::unique_ptr<AdmissionController> admission_;

  mutable std::mutex stats_mu_;
  uint64_t shed_queries_ = 0;
  std::atomic<uint64_t> generation_{0};
  /// Last member, so it stops first: its threads call into everything
  /// above, and its writers wait on the service.
  ConnectionLoop loop_;
};

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_SERVER_H_

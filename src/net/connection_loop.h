// ConnectionLoop: the one connection layer FtsServer and RouterServer run
// on (docs/serving.md, docs/threading.md).
//
// One acceptor thread polls the listener with a bounded tick (so Stop() is
// deterministic) and reaps finished connections; each connection gets a
// reader and a writer thread. The reader passes every frame to the
// server's handler, which returns a reply slot: a ready frame, or a
// deferred encoder that waits on work the reader started (a SearchService
// future, a scattered query's shard replies). The writer runs the slots in
// arrival order, so many requests can be in flight on one connection and
// replies still leave in request order.
//
// Malformed input fails closed: an oversized declared frame length, or a
// frame the handler answers with nullopt ("poison"), drops the connection
// and counts a protocol error. A connection whose first bytes are "GET "
// or "HEAD" is served one plain-text HTTP response (/metrics, /healthz)
// and closed.

#ifndef FTS_NET_CONNECTION_LOOP_H_
#define FTS_NET_CONNECTION_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fts {
namespace net {

/// Appends one "key value" line to a plain-text /metrics body.
void AppendMetric(std::string* out, std::string_view key, uint64_t value);

class ConnectionLoop {
 public:
  /// One reply slot: a ready frame, or (when `deferred` is set) an encoder
  /// the connection's writer runs in request order.
  struct Reply {
    Reply() = default;
    explicit Reply(std::string ready) : frame(std::move(ready)) {}
    explicit Reply(std::function<std::string()> encode)
        : deferred(std::move(encode)) {}

    std::string frame;
    std::function<std::string()> deferred;
  };

  /// What a server supplies.
  struct Handlers {
    /// One binary frame (its prologue already checked) -> its reply slot,
    /// or nullopt to poison the stream. Runs on the connection's reader
    /// thread; Metrics requests never reach it.
    std::function<std::optional<Reply>(MessageType type,
                                       const std::string& payload)>
        frame;
    /// The body of /metrics and of the binary Metrics message.
    std::function<std::string()> metrics;
    /// /healthz and /: OK answers "200 ok"; an error answers 503 with its
    /// message.
    std::function<Status()> health;
  };

  explicit ConnectionLoop(Handlers handlers);
  ~ConnectionLoop();

  ConnectionLoop(const ConnectionLoop&) = delete;
  ConnectionLoop& operator=(const ConnectionLoop&) = delete;

  /// Binds, listens and spawns the acceptor. Fails (without spawning
  /// anything) if the port cannot be bound.
  Status Start(uint16_t port, bool loopback_only, uint32_t max_frame_bytes);

  /// Stops intake, wakes every connection and joins all its threads once
  /// each writer has drained its slots. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Appends fts_connections_accepted and fts_protocol_errors.
  void AppendMetrics(std::string* out) const;

 private:
  struct Connection;

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);
  /// Peeks the prologue and answers Metrics itself; the rest goes to the
  /// server's frame handler.
  std::optional<Reply> HandleFrame(const std::string& payload);
  /// Reads the rest of an HTTP request line and queues its response.
  void ServeHttp(Connection* conn, const char prefix[4]);
  /// Joins and erases finished connections (acceptor thread, or Stop).
  void ReapConnections(bool all);

  Handlers handlers_;
  uint32_t max_frame_bytes_ = 0;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  std::atomic<uint64_t> accepted_connections_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
  std::thread acceptor_;
};

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_CONNECTION_LOOP_H_

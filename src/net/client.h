// FtsClient: C++ client for the fts wire protocol (docs/serving.md).
//
// One client owns one TCP connection (opened lazily on the first call and
// reopened transparently after a disconnect) plus a background reader
// thread that matches response frames to in-flight requests by request id.
// Because matching is id-based, calls pipeline: SearchAsync returns a
// future immediately and many requests can be in flight on the one
// connection — the server evaluates them concurrently across its worker
// pool and streams responses back in request order. The synchronous
// wrappers are Submit-then-wait with a client-side timeout
// (DeadlineExceeded on expiry; the server may still complete the query —
// pass a server-side deadline too when that matters).
//
// Failure model: when the connection dies, every in-flight call fails
// with Unavailable and the next call reconnects. A response frame that
// cannot be decoded fails only its own call (InvalidArgument); an
// undecodable frame *prologue* poisons the stream and fails everything.
// Thread-safe: any thread may issue calls concurrently.

#ifndef FTS_NET_CLIENT_H_
#define FTS_NET_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

namespace fts {
namespace net {

/// How long to wait for a search reply: `call_timeout` (zero = forever),
/// extended by a server-side deadline of `deadline_us` so the server's own
/// kDeadlineExceeded answer can make it back.
std::chrono::milliseconds SearchWait(std::chrono::milliseconds call_timeout,
                                     uint64_t deadline_us);

class FtsClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::chrono::milliseconds connect_timeout{5000};
    /// Client-side wait bound of the synchronous wrappers; zero = wait
    /// forever (the reader still fails the call if the connection dies).
    std::chrono::milliseconds call_timeout{30000};
    uint32_t max_frame_bytes = kMaxFrameBytes;
  };

  explicit FtsClient(Options options) : options_(std::move(options)) {}
  ~FtsClient();

  FtsClient(const FtsClient&) = delete;
  FtsClient& operator=(const FtsClient&) = delete;

  /// Pipelined search: returns immediately; the future resolves when the
  /// response frame arrives (or the connection dies). `req.request_id` is
  /// assigned by the client and, when `request_id` is given, stored there.
  std::future<StatusOr<SearchResponse>> SearchAsync(
      SearchRequest req, uint64_t* request_id = nullptr);

  /// Gives up on the call with `request_id`: its slot is dropped and a
  /// late response is discarded. Its future is broken; do not wait on it.
  void Abandon(uint64_t request_id);

  /// Synchronous search. `deadline_us` > 0 additionally asks the server
  /// to abandon evaluation after that many microseconds (the reply is
  /// then a kDeadlineExceeded status).
  StatusOr<SearchResponse> Search(std::string_view query, uint32_t top_k = 0,
                                  WireCursorMode mode = WireCursorMode::kDefault,
                                  uint64_t deadline_us = 0);

  StatusOr<PingResponse> Ping();
  StatusOr<StatsResponse> Stats();
  StatusOr<MetricsResponse> Metrics();

  /// Pipelined Stats and SetGlobalStats, as SearchAsync: the request is
  /// encoded, sent and freed before they return, so a caller can have one
  /// in flight on every shard at once. The id is stored in `*request_id`.
  std::future<StatusOr<StatsResponse>> StatsAsync(uint64_t* request_id);
  std::future<StatusOr<SetGlobalStatsResponse>> SetGlobalStatsAsync(
      uint64_t global_live_nodes,
      std::vector<std::pair<std::string, uint32_t>> df_by_text,
      uint64_t* request_id);

  /// Closes the connection and fails everything in flight; the next call
  /// reconnects. Idempotent.
  void Disconnect();

 private:
  using Handler = std::function<void(StatusOr<std::string>)>;

  /// Connects (if needed) and starts the reader. Serialized; concurrent
  /// callers wait and then observe the established connection.
  Status EnsureConnected();
  /// Registers `handler` for `id` and writes `frame`; on any failure the
  /// handler is completed with the error instead (never lost).
  void Dispatch(uint64_t id, Handler handler, const std::string& frame);
  /// Dispatch with a handler that decodes the reply into the future.
  template <typename Resp>
  std::future<StatusOr<Resp>> Send(uint64_t id, const std::string& frame,
                                   Status (*decode)(std::string_view, Resp*));
  /// Send, then wait up to `timeout` (zero = forever); on expiry the slot
  /// is abandoned and the call fails with DeadlineExceeded.
  template <typename Req, typename Resp>
  StatusOr<Resp> Call(Req req, std::string (*encode)(const Req&),
                      Status (*decode)(std::string_view, Resp*),
                      std::chrono::milliseconds timeout);
  /// Removes and returns the pending slot of `id` (null if there is none).
  Handler Take(uint64_t id);
  void ReaderLoop();
  void FailAllPending(const Status& error);
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  Options options_;

  /// Serializes connect/disconnect transitions.
  std::mutex state_mu_;
  /// Guards sock_ replacement and all writes (frames must not interleave).
  std::mutex write_mu_;
  Socket sock_;
  std::thread reader_;
  std::atomic<bool> connected_{false};

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Handler> pending_;
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_CLIENT_H_

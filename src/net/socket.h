// Thin POSIX TCP helpers for the network serving layer: listen/accept/
// connect plus frame-granularity reads and writes with poll-based
// timeouts. Everything returns Status instead of errno so the serving
// code stays in the library's error model; SIGPIPE is never raised
// (writes use MSG_NOSIGNAL).

#ifndef FTS_NET_SOCKET_H_
#define FTS_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fts {
namespace net {

/// Owning wrapper around one socket fd. Move-only; closes on destruction.
/// Concurrent use contract: one thread may read while another writes
/// (TCP full-duplex); Shutdown() may be called from any thread to wake
/// both (reads then observe EOF, writes fail), which is how servers and
/// clients interrupt blocked peers during teardown.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Disables further sends and receives; a peer (or a thread of this
  /// process) blocked in ReadFull observes EOF. Safe to call twice and on
  /// an invalid socket.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// No timeout: block until completion or a Shutdown/peer close.
inline constexpr std::chrono::milliseconds kNoTimeout{0};

/// Opens a listening IPv4 TCP socket on 127.0.0.1 (`loopback_only`) or
/// 0.0.0.0, with SO_REUSEADDR. `port` 0 binds an ephemeral port;
/// `*bound_port` receives the actual port either way.
StatusOr<Socket> ListenTcp(uint16_t port, uint16_t* bound_port,
                           bool loopback_only = false);

/// Accepts one connection, waiting up to `timeout` (kNoTimeout = one
/// bounded poll tick). Returns NotFound when the wait elapses with no
/// pending connection — the caller's accept loop treats that as "check
/// the stop flag and poll again" — and IOError when the listener is gone.
StatusOr<Socket> AcceptWithTimeout(const Socket& listener,
                                   std::chrono::milliseconds timeout);

/// Connects to host:port (numeric IPv4 or a resolvable name), waiting up
/// to `timeout` (kNoTimeout = OS default).
StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port,
                            std::chrono::milliseconds timeout = kNoTimeout);

/// ReadSome's "no deadline".
inline constexpr std::chrono::steady_clock::time_point kNoDeadline{};

/// Reads what has arrived, at most `len` (> 0) bytes, into `buf`, waiting
/// until `deadline` for the first byte; returns the count. Unavailable on
/// clean EOF, IOError on a socket error, DeadlineExceeded when nothing
/// arrives in time.
StatusOr<size_t> ReadSome(const Socket& sock, void* buf, size_t len,
                          std::chrono::steady_clock::time_point deadline);

/// Reads exactly `len` bytes into `buf`. Unavailable on clean EOF at
/// offset 0 (peer closed between frames), IOError on mid-read EOF or a
/// socket error, DeadlineExceeded when `timeout` (kNoTimeout = none)
/// elapses first.
Status ReadFull(const Socket& sock, void* buf, size_t len,
                std::chrono::milliseconds timeout = kNoTimeout);

/// Writes all of `data`, never raising SIGPIPE; IOError if the peer went
/// away mid-write.
Status WriteAll(const Socket& sock, std::string_view data);

/// Reads one length-prefixed frame (u32 LE length, then payload) into
/// `*payload`. Rejects frames larger than `max_frame_bytes` with
/// InvalidArgument — the stream is unrecoverable after that (the length
/// cannot be trusted), so callers must close the connection. EOF between
/// frames is Unavailable; EOF inside a frame is IOError.
Status ReadFrame(const Socket& sock, std::string* payload,
                 uint32_t max_frame_bytes,
                 std::chrono::milliseconds timeout = kNoTimeout);

/// The second half of ReadFrame, for a caller that has already read the
/// four length bytes in `header` (e.g. to tell a binary frame from an HTTP
/// request line). Same bounds and errors as ReadFrame.
Status ReadFramePayload(const Socket& sock, const char (&header)[4],
                        std::string* payload, uint32_t max_frame_bytes,
                        std::chrono::milliseconds timeout = kNoTimeout);

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_SOCKET_H_

#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "net/wire.h"

namespace fts {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string("net: ") + what + ": " + strerror(errno));
}

/// Waits for `events` on fd. Returns 1 ready / 0 timeout, retrying EINTR.
int PollOne(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc >= 0) return rc;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> ListenTcp(uint16_t port, uint16_t* bound_port,
                           bool loopback_only) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, 128) != 0) return Errno("listen");
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return sock;
}

StatusOr<Socket> AcceptWithTimeout(const Socket& listener,
                                   std::chrono::milliseconds timeout) {
  // A zero timeout still polls for one bounded tick (rather than blocking
  // forever in accept): the acceptor loop interleaves these ticks with its
  // stop-flag check, which is what makes server shutdown deterministic —
  // close() on an fd another thread has blocking-accept'ed is not reliably
  // wakeful on Linux.
  const int timeout_ms =
      timeout == kNoTimeout ? 100 : static_cast<int>(timeout.count());
  const int ready = PollOne(listener.fd(), POLLIN, timeout_ms);
  if (ready < 0) return Errno("poll(listen)");
  if (ready == 0) return Status::NotFound("accept timed out");
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return Errno("accept");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

StatusOr<Socket> ConnectTcp(const std::string& host, uint16_t port,
                            std::chrono::milliseconds timeout) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::IOError("net: cannot resolve " + host + ": " +
                           gai_strerror(rc));
  }
  Status last = Status::IOError("net: no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    Socket sock(fd);
    if (timeout != kNoTimeout) {
      // Non-blocking connect + poll implements the timeout, then the
      // socket reverts to blocking for the framed IO helpers.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      const int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
      if (crc != 0 && errno != EINPROGRESS) {
        last = Errno("connect");
        continue;
      }
      if (crc != 0) {
        const int ready =
            PollOne(fd, POLLOUT, static_cast<int>(timeout.count()));
        if (ready <= 0) {
          last = ready == 0
                     ? Status::DeadlineExceeded("net: connect timed out")
                     : Errno("poll(connect)");
          continue;
        }
        int err = 0;
        socklen_t err_len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
        if (err != 0) {
          errno = err;
          last = Errno("connect");
          continue;
        }
      }
      ::fcntl(fd, F_SETFL, flags);
    } else if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(res);
    return sock;
  }
  ::freeaddrinfo(res);
  return last;
}

StatusOr<size_t> ReadSome(const Socket& sock, void* buf, size_t len,
                          std::chrono::steady_clock::time_point deadline) {
  if (deadline != kNoDeadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Status::DeadlineExceeded("net: read timed out");
    const int ready = PollOne(sock.fd(), POLLIN, static_cast<int>(left.count()));
    if (ready < 0) return Errno("poll(read)");
    if (ready == 0) return Status::DeadlineExceeded("net: read timed out");
  }
  while (true) {
    const ssize_t n = ::recv(sock.fd(), buf, len, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return Status::Unavailable("net: connection closed by peer");
    if (errno != EINTR) return Errno("recv");
  }
}

Status ReadFull(const Socket& sock, void* buf, size_t len,
                std::chrono::milliseconds timeout) {
  const auto deadline = timeout == kNoTimeout
                            ? kNoDeadline
                            : std::chrono::steady_clock::now() + timeout;
  char* out = static_cast<char*>(buf);
  for (size_t got = 0; got < len;) {
    const StatusOr<size_t> n = ReadSome(sock, out + got, len - got, deadline);
    // Clean close at a frame boundary is the peer hanging up, not
    // corruption; mid-object EOF is a truncated stream.
    if (n.status().code() == StatusCode::kUnavailable && got > 0) {
      return Status::IOError("net: connection closed mid-read");
    }
    FTS_RETURN_IF_ERROR(n.status());
    got += *n;
  }
  return Status::OK();
}

Status WriteAll(const Socket& sock, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(sock.fd(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFrame(const Socket& sock, std::string* payload,
                 uint32_t max_frame_bytes, std::chrono::milliseconds timeout) {
  char header[kFrameHeaderBytes];
  FTS_RETURN_IF_ERROR(ReadFull(sock, header, sizeof(header), timeout));
  return ReadFramePayload(sock, header, payload, max_frame_bytes, timeout);
}

Status ReadFramePayload(const Socket& sock, const char (&header)[4],
                        std::string* payload, uint32_t max_frame_bytes,
                        std::chrono::milliseconds timeout) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (len > max_frame_bytes) {
    // The declared length exceeds the bound, so the stream can never be
    // resynchronized — the caller must fail closed and drop the
    // connection rather than allocate or skip.
    return Status::InvalidArgument(
        "net: frame of " + std::to_string(len) + " bytes exceeds limit of " +
        std::to_string(max_frame_bytes));
  }
  payload->resize(len);
  Status read = ReadFull(sock, payload->data(), len, timeout);
  if (!read.ok() && read.code() == StatusCode::kUnavailable) {
    // EOF after a header is a truncated frame, not a clean hangup.
    return Status::IOError("net: connection closed mid-frame");
  }
  return read;
}

}  // namespace net
}  // namespace fts

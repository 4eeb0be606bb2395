#include "net/connection_loop.h"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>

namespace fts {
namespace net {

void AppendMetric(std::string* out, std::string_view key, uint64_t value) {
  *out += key;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

struct ConnectionLoop::Connection {
  Socket sock;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Reply> out;
  bool reader_done = false;
  /// Both threads finished; the acceptor may reap this connection.
  std::atomic<bool> finished{false};
  std::thread reader;
  std::thread writer;

  void Push(Reply reply) {
    {
      std::lock_guard<std::mutex> lock(mu);
      out.push_back(std::move(reply));
    }
    cv.notify_all();
  }
};

ConnectionLoop::ConnectionLoop(Handlers handlers)
    : handlers_(std::move(handlers)) {}

ConnectionLoop::~ConnectionLoop() { Stop(); }

Status ConnectionLoop::Start(uint16_t port, bool loopback_only,
                             uint32_t max_frame_bytes) {
  FTS_ASSIGN_OR_RETURN(Socket listener,
                       ListenTcp(port, &port_, loopback_only));
  listener_ = std::move(listener);
  max_frame_bytes_ = max_frame_bytes;
  stop_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ConnectionLoop::Stop() {
  stop_.store(true);
  if (acceptor_.joinable()) {
    listener_.Shutdown();
    acceptor_.join();
  }
  {
    // Wake every blocked reader (EOF) and writer-side peer.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (std::unique_ptr<Connection>& c : conns_) c->sock.Shutdown();
  }
  // Readers exit on EOF; writers drain their slots first, so the server
  // must keep whatever its deferred replies wait on running until here.
  ReapConnections(/*all=*/true);
  listener_.Close();
}

void ConnectionLoop::AppendMetrics(std::string* out) const {
  AppendMetric(out, "fts_connections_accepted", accepted_connections_.load());
  AppendMetric(out, "fts_protocol_errors", protocol_errors_.load());
}

void ConnectionLoop::AcceptLoop() {
  while (!stop_.load()) {
    StatusOr<Socket> accepted = AcceptWithTimeout(listener_, kNoTimeout);
    ReapConnections(/*all=*/false);
    if (!accepted.ok()) {
      // NotFound is the bounded poll tick elapsing; anything else is a
      // transient accept failure (or the listener dying under Stop) —
      // either way the loop just re-checks the stop flag.
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(accepted).value();
    Connection* c = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    accepted_connections_.fetch_add(1);
    c->reader = std::thread([this, c] { ReaderLoop(c); });
    c->writer = std::thread([this, c] { WriterLoop(c); });
  }
}

void ConnectionLoop::ReapConnections(bool all) {
  std::list<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->finished.load()) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::unique_ptr<Connection>& c : dead) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
  }
}

void ConnectionLoop::ReaderLoop(Connection* conn) {
  bool poisoned = false;
  // The first four bytes decide the dialect: an HTTP verb gets one
  // plain-text operational response; anything else is the first binary
  // frame's length prefix.
  char head[4];
  Status read = ReadFull(conn->sock, head, sizeof(head));
  if (read.ok() &&
      (std::memcmp(head, "GET ", 4) == 0 || std::memcmp(head, "HEAD", 4) == 0)) {
    ServeHttp(conn, head);
  } else {
    std::string payload;
    while (read.ok()) {
      read = ReadFramePayload(conn->sock, head, &payload, max_frame_bytes_);
      if (!read.ok()) break;
      std::optional<Reply> reply = HandleFrame(payload);
      if (!reply.has_value()) {
        poisoned = true;
        break;
      }
      conn->Push(std::move(reply).value());
      read = ReadFull(conn->sock, head, sizeof(head));
    }
    // InvalidArgument = oversized declared length: the stream is
    // poisoned. Unavailable = clean disconnect. IOError = truncated
    // frame. Only the first is the peer's protocol violation.
    if (read.code() == StatusCode::kInvalidArgument) poisoned = true;
  }
  if (poisoned) {
    protocol_errors_.fetch_add(1);
    conn->sock.Shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.notify_all();
}

void ConnectionLoop::WriterLoop(Connection* conn) {
  while (true) {
    Reply reply;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock,
                    [conn] { return conn->reader_done || !conn->out.empty(); });
      if (conn->out.empty()) break;  // reader finished and slots drained
      reply = std::move(conn->out.front());
      conn->out.pop_front();
    }
    // Slot order is request order, even though the work behind deferred
    // slots may complete out of order. A failed write means the peer is
    // gone; keep looping anyway so every deferred reply still runs (its
    // result is simply dropped).
    (void)WriteAll(conn->sock, reply.deferred ? reply.deferred() : reply.frame);
  }
  conn->sock.Shutdown();
  conn->finished.store(true);
}

std::optional<ConnectionLoop::Reply> ConnectionLoop::HandleFrame(
    const std::string& payload) {
  uint8_t type = 0;
  uint64_t request_id = 0;
  if (!PeekPrologue(payload, &type, &request_id).ok()) return std::nullopt;
  if (static_cast<MessageType>(type) != MessageType::kMetricsRequest) {
    return handlers_.frame(static_cast<MessageType>(type), payload);
  }
  MetricsRequest req;
  if (!DecodeMetricsRequest(payload, &req).ok()) return std::nullopt;
  MetricsResponse resp;
  resp.request_id = req.request_id;
  resp.text = handlers_.metrics();
  return Reply(EncodeMetricsResponse(resp));
}

void ConnectionLoop::ServeHttp(Connection* conn, const char prefix[4]) {
  // Read the request line (the four verb bytes are already read) in
  // chunks, up to its '\n' or 4,096 bytes. Headers and bodies are ignored
  // (GET/HEAD endpoints; the connection closes after its one reply). One
  // 2 s budget bounds the whole line, so a peer trickling bytes cannot
  // hold the connection's reader and writer threads for longer than that.
  constexpr size_t kMaxLine = 4096;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  std::string line(prefix, 4);
  size_t eol = std::string::npos;
  while (line.size() < kMaxLine && eol == std::string::npos) {
    const size_t old_size = line.size();
    line.resize(kMaxLine);
    const StatusOr<size_t> got = ReadSome(conn->sock, line.data() + old_size,
                                          kMaxLine - old_size, deadline);
    if (!got.ok()) return;
    line.resize(old_size + *got);
    eol = line.find('\n', old_size);
  }
  if (eol != std::string::npos) line.resize(eol + 1);
  // "VERB /path HTTP/1.x": the path runs from the first space to the next.
  const size_t path_begin = line.find(' ') + 1;  // npos + 1 == 0
  const size_t path_end = line.find(' ', path_begin);
  const std::string path =
      path_begin == 0 || path_end == std::string::npos
          ? std::string()
          : line.substr(path_begin, path_end - path_begin);
  std::string body;
  const char* status = "200 OK";
  if (path == "/metrics") {
    body = handlers_.metrics();
  } else if (path == "/healthz" || path == "/") {
    const Status health = handlers_.health();
    if (health.ok()) {
      body = "ok\n";
    } else {
      status = "503 Service Unavailable";
      body = health.message() + "\n";
    }
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  Reply reply;
  reply.frame = std::string("HTTP/1.0 ") + status +
                "\r\nContent-Type: text/plain; charset=utf-8"
                "\r\nContent-Length: " +
                std::to_string(body.size()) +
                "\r\nConnection: close\r\n\r\n";
  if (std::memcmp(prefix, "HEAD", 4) != 0) reply.frame += body;
  conn->Push(std::move(reply));
}

}  // namespace net
}  // namespace fts

#include "net/client.h"

#include <memory>

namespace fts {
namespace net {

namespace {

/// Decodes a raw response payload (or passes its error through).
template <typename Resp>
StatusOr<Resp> DecodeAs(Status (*decode)(std::string_view, Resp*),
                        StatusOr<std::string> payload) {
  FTS_RETURN_IF_ERROR(payload.status());
  Resp resp;
  FTS_RETURN_IF_ERROR(decode(*payload, &resp));
  return resp;
}

}  // namespace

FtsClient::~FtsClient() { Disconnect(); }

Status FtsClient::EnsureConnected() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (connected_.load()) return Status::OK();
  // A previous connection's reader has set connected_ to false and is
  // exiting (or has exited); it never touches the socket after that, so
  // joining here makes the replacement below race-free.
  if (reader_.joinable()) reader_.join();
  FTS_ASSIGN_OR_RETURN(
      Socket sock,
      ConnectTcp(options_.host, options_.port, options_.connect_timeout));
  {
    std::lock_guard<std::mutex> wlock(write_mu_);
    sock_ = std::move(sock);
  }
  connected_.store(true);
  reader_ = std::thread([this] { ReaderLoop(); });
  return Status::OK();
}

void FtsClient::Disconnect() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    connected_.store(false);
    sock_.Shutdown();  // wakes the reader, which fails all pending
    if (reader_.joinable()) reader_.join();
    std::lock_guard<std::mutex> wlock(write_mu_);
    sock_.Close();
  }
  // The reader normally fails in-flight calls; cover the path where it
  // was never started (or already gone) so nothing is left hanging.
  FailAllPending(Status::Unavailable("net: client disconnected"));
}

void FtsClient::ReaderLoop() {
  while (true) {
    std::string payload;
    Status s = ReadFrame(sock_, &payload, options_.max_frame_bytes);
    Status failure;
    if (!s.ok()) {
      failure = s.code() == StatusCode::kUnavailable
                    ? Status::Unavailable("net: connection closed")
                    : Status::Unavailable("net: connection lost: " + s.message());
    } else {
      uint8_t type = 0;
      uint64_t id = 0;
      const Status peek = PeekPrologue(payload, &type, &id);
      if (peek.ok()) {
        // No handler = a call that already timed out client-side; the
        // late response is dropped.
        if (Handler handler = Take(id)) handler(std::move(payload));
        continue;
      }
      // An unreadable prologue cannot be attributed to any request — the
      // stream is poisoned, so everything in flight fails.
      failure = peek;
    }
    connected_.store(false);
    sock_.Shutdown();
    FailAllPending(failure);
    return;
  }
}

void FtsClient::FailAllPending(const Status& error) {
  std::unordered_map<uint64_t, Handler> doomed;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    doomed.swap(pending_);
  }
  for (auto& [id, handler] : doomed) handler(error);
}

void FtsClient::Dispatch(uint64_t id, Handler handler,
                         const std::string& frame) {
  const Status conn = EnsureConnected();
  if (!conn.ok()) {
    handler(conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.emplace(id, std::move(handler));
  }
  Status sent;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    sent = connected_.load()
               ? WriteAll(sock_, frame)
               : Status::Unavailable("net: connection lost before send");
  }
  if (!sent.ok()) {
    // Reclaim the slot (the reader may have failed it already).
    if (Handler reclaimed = Take(id)) reclaimed(sent);
  }
}

template <typename Resp>
std::future<StatusOr<Resp>> FtsClient::Send(
    uint64_t id, const std::string& frame,
    Status (*decode)(std::string_view, Resp*)) {
  auto promise = std::make_shared<std::promise<StatusOr<Resp>>>();
  std::future<StatusOr<Resp>> future = promise->get_future();
  Dispatch(id,
           [promise, decode](StatusOr<std::string> payload) {
             promise->set_value(DecodeAs(decode, std::move(payload)));
           },
           frame);
  return future;
}

FtsClient::Handler FtsClient::Take(uint64_t id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  const auto it = pending_.find(id);
  if (it == pending_.end()) return nullptr;
  Handler handler = std::move(it->second);
  pending_.erase(it);
  return handler;
}

void FtsClient::Abandon(uint64_t request_id) { Take(request_id); }

std::future<StatusOr<SearchResponse>> FtsClient::SearchAsync(
    SearchRequest req, uint64_t* request_id) {
  req.request_id = NextId();
  if (request_id != nullptr) *request_id = req.request_id;
  return Send(req.request_id, EncodeSearchRequest(req), DecodeSearchResponse);
}

std::chrono::milliseconds SearchWait(std::chrono::milliseconds call_timeout,
                                     uint64_t deadline_us) {
  if (call_timeout.count() == 0 || deadline_us == 0) return call_timeout;
  return call_timeout + std::chrono::milliseconds(deadline_us / 1000 + 1);
}

StatusOr<SearchResponse> FtsClient::Search(std::string_view query,
                                           uint32_t top_k, WireCursorMode mode,
                                           uint64_t deadline_us) {
  SearchRequest req;
  req.query = std::string(query);
  req.top_k = top_k;
  req.mode = mode;
  req.deadline_us = deadline_us;
  return Call(std::move(req), EncodeSearchRequest, DecodeSearchResponse,
              SearchWait(options_.call_timeout, deadline_us));
}

template <typename Req, typename Resp>
StatusOr<Resp> FtsClient::Call(Req req, std::string (*encode)(const Req&),
                               Status (*decode)(std::string_view, Resp*),
                               std::chrono::milliseconds timeout) {
  req.request_id = NextId();
  std::future<StatusOr<Resp>> reply = Send(req.request_id, encode(req), decode);
  if (timeout.count() > 0 &&
      reply.wait_for(timeout) != std::future_status::ready) {
    Abandon(req.request_id);
    return Status::DeadlineExceeded("net: call timed out after " +
                                    std::to_string(timeout.count()) + "ms");
  }
  return reply.get();
}

StatusOr<PingResponse> FtsClient::Ping() {
  return Call(PingRequest{}, EncodePingRequest, DecodePingResponse,
              options_.call_timeout);
}

StatusOr<StatsResponse> FtsClient::Stats() {
  return Call(StatsRequest{}, EncodeStatsRequest, DecodeStatsResponse,
              options_.call_timeout);
}

std::future<StatusOr<StatsResponse>> FtsClient::StatsAsync(uint64_t* request_id) {
  StatsRequest req;
  req.request_id = *request_id = NextId();
  return Send(req.request_id, EncodeStatsRequest(req), DecodeStatsResponse);
}

std::future<StatusOr<SetGlobalStatsResponse>> FtsClient::SetGlobalStatsAsync(
    uint64_t global_live_nodes,
    std::vector<std::pair<std::string, uint32_t>> df_by_text,
    uint64_t* request_id) {
  SetGlobalStatsRequest req;
  req.request_id = *request_id = NextId();
  req.global_live_nodes = global_live_nodes;
  req.df_by_text = std::move(df_by_text);
  return Send(req.request_id, EncodeSetGlobalStatsRequest(req),
              DecodeSetGlobalStatsResponse);
}

StatusOr<MetricsResponse> FtsClient::Metrics() {
  return Call(MetricsRequest{}, EncodeMetricsRequest, DecodeMetricsResponse,
              options_.call_timeout);
}

}  // namespace net
}  // namespace fts

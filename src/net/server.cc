#include "net/server.h"

#include <cstring>

#include "common/metrics.h"
#include "index/pair_index.h"
#include "index/shared_block_cache.h"

namespace fts {
namespace net {

namespace {

/// Single segment, no tombstones: Create skips the stats pass entirely and
/// cannot fail, so the .value() below is safe.
std::shared_ptr<const IndexSnapshot> InitialSnapshot(
    std::shared_ptr<const InvertedIndex> index) {
  return IndexSnapshot::Create({std::move(index)}).value();
}

uint32_t ReadLe32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

FtsServer::FtsServer(std::shared_ptr<const InvertedIndex> index,
                     Options options)
    : options_(std::move(options)),
      index_(std::move(index)),
      source_(InitialSnapshot(index_)),
      service_(std::make_unique<SearchService>(&source_, options_.service)),
      admission_(std::make_unique<AdmissionController>(options_.admission)) {}

FtsServer::~FtsServer() { Stop(); }

Status FtsServer::Start() {
  FTS_ASSIGN_OR_RETURN(
      Socket listener,
      ListenTcp(options_.port, &port_, options_.loopback_only));
  listener_ = std::move(listener);
  stop_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FtsServer::Stop() {
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
  // Readers exit on EOF; writers drain their FIFOs — pending search
  // futures resolve because the service workers are still running here.
  ReapConnections(/*all=*/true);
  service_->Shutdown();
  listener_.Close();
}

void FtsServer::AcceptLoop() {
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
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++accepted_connections_;
    }
    c->reader = std::thread([this, c] { ReaderLoop(c); });
    c->writer = std::thread([this, c] { WriterLoop(c); });
  }
}

void FtsServer::ReapConnections(bool all) {
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

void FtsServer::ReaderLoop(Connection* conn) {
  bool poisoned = false;
  // The first four bytes decide the dialect: an HTTP verb serves one
  // plain-text operational response; anything else is a binary frame's
  // length prefix.
  char head[4];
  if (ReadFull(conn->sock, head, sizeof(head)).ok()) {
    if (std::memcmp(head, "GET ", 4) == 0 || std::memcmp(head, "HEAD", 4) == 0) {
      HandleHttp(conn, head);
    } else {
      bool first = true;
      std::string payload;
      while (true) {
        Status read;
        if (first) {
          first = false;
          const uint32_t len = ReadLe32(head);
          if (len > options_.max_frame_bytes) {
            read = Status::InvalidArgument("net: oversized first frame");
          } else {
            payload.assign(len, '\0');
            if (len > 0) read = ReadFull(conn->sock, payload.data(), len);
          }
        } else {
          read = ReadFrame(conn->sock, &payload, options_.max_frame_bytes);
        }
        if (!read.ok()) {
          // InvalidArgument = oversized declared length: the stream is
          // poisoned. Unavailable = clean disconnect. IOError = truncated
          // frame. Only the first is the peer's protocol violation.
          poisoned = read.code() == StatusCode::kInvalidArgument;
          break;
        }
        if (!HandleFrame(conn, payload)) {
          poisoned = true;
          break;
        }
      }
    }
  }
  if (poisoned) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++protocol_errors_;
    }
    conn->sock.Shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.notify_all();
}

void FtsServer::WriterLoop(Connection* conn) {
  while (true) {
    Outgoing out;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock,
                    [conn] { return conn->reader_done || !conn->out.empty(); });
      if (conn->out.empty()) break;  // reader finished and FIFO drained
      out = std::move(conn->out.front());
      conn->out.pop_front();
    }
    std::string frame;
    if (out.pending.has_value()) {
      // FIFO wait: responses leave in request order even though the pool
      // may complete them out of order.
      StatusOr<RoutedResult> result = out.pending->get();
      SearchResponse resp;
      resp.request_id = out.request_id;
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
      frame = EncodeSearchResponse(resp);
    } else {
      frame = std::move(out.ready);
    }
    // A failed write means the peer is gone; keep looping anyway so every
    // pending future is consumed (their results are simply dropped).
    (void)WriteAll(conn->sock, frame);
  }
  conn->sock.Shutdown();
  conn->finished.store(true);
}

void FtsServer::Push(Connection* conn, Outgoing out) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->out.push_back(std::move(out));
  }
  conn->cv.notify_all();
}

bool FtsServer::HandleFrame(Connection* conn, const std::string& payload) {
  uint8_t type = 0;
  uint64_t request_id = 0;
  if (!PeekPrologue(payload, &type, &request_id).ok()) return false;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kSearchRequest: {
      SearchRequest req;
      if (!DecodeSearchRequest(payload, &req).ok()) return false;
      HandleSearch(conn, req);
      return true;
    }
    case MessageType::kPingRequest: {
      PingRequest req;
      if (!DecodePingRequest(payload, &req).ok()) return false;
      const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
      PingResponse resp;
      resp.request_id = req.request_id;
      resp.server_name = options_.name;
      resp.num_nodes = snap->total_nodes();
      resp.generation = snap->generation();
      Outgoing out;
      out.ready = EncodePingResponse(resp);
      Push(conn, std::move(out));
      return true;
    }
    case MessageType::kStatsRequest: {
      StatsRequest req;
      if (!DecodeStatsRequest(payload, &req).ok()) return false;
      const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
      StatsResponse resp;
      resp.request_id = req.request_id;
      resp.num_nodes = snap->total_nodes();
      // Local df by token text (summed across segments, though a shard
      // server holds exactly one): the router's input for the global
      // aggregate.
      std::unordered_map<std::string, uint32_t> df;
      for (const SegmentView& seg : snap->segments()) {
        const InvertedIndex& idx = *seg.index;
        const TokenId vocab = static_cast<TokenId>(idx.vocabulary_size());
        for (TokenId t = 0; t < vocab; ++t) {
          const uint32_t d = idx.df(t);
          if (d != 0) df[idx.token_text(t)] += d;
        }
        // Pair-list dfs travel in the same exchange under their
        // collision-proof StatsKey; the router sums them like token dfs
        // and each shard's multi-index planner reads the global values.
        if (const PairIndex* pair = idx.pair_index()) {
          for (size_t k = 0; k < pair->num_keys(); ++k) {
            const PairTermKey& key = pair->key(k);
            df[PairIndex::StatsKey(idx.token_text(key.first),
                                   idx.token_text(key.second))] +=
                static_cast<uint32_t>(pair->list(k).num_entries());
          }
        }
      }
      resp.df_by_text.assign(df.begin(), df.end());
      Outgoing out;
      out.ready = EncodeStatsResponse(resp);
      Push(conn, std::move(out));
      return true;
    }
    case MessageType::kSetGlobalStatsRequest: {
      SetGlobalStatsRequest req;
      if (!DecodeSetGlobalStatsRequest(payload, &req).ok()) return false;
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
      Outgoing out;
      out.ready = EncodeSetGlobalStatsResponse(resp);
      Push(conn, std::move(out));
      return true;
    }
    case MessageType::kMetricsRequest: {
      MetricsRequest req;
      if (!DecodeMetricsRequest(payload, &req).ok()) return false;
      MetricsResponse resp;
      resp.request_id = req.request_id;
      resp.text = MetricsText();
      Outgoing out;
      out.ready = EncodeMetricsResponse(resp);
      Push(conn, std::move(out));
      return true;
    }
    default:
      // A type this server cannot serve: there is no response layout to
      // answer with, so the stream is dead weight — drop the connection.
      return false;
  }
}

void FtsServer::HandleSearch(Connection* conn, const SearchRequest& req) {
  Outgoing out;
  out.request_id = req.request_id;
  if (options_.admission.enabled) {
    // Cost the query before it touches the queue; under pressure the
    // expensive ones are answered Unavailable right here.
    const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
    StatusOr<AdmissionDecision> verdict =
        admission_->Assess(req.query, *snap, service_->queue_depth(),
                           service_->queue_capacity());
    if (!verdict.ok()) {
      // Parse failure — the same error the worker would produce, without
      // spending a queue slot on it.
      SearchResponse resp;
      resp.request_id = req.request_id;
      resp.status = verdict.status();
      out.ready = EncodeSearchResponse(resp);
      Push(conn, std::move(out));
      return;
    }
    if (!verdict->admit) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++shed_queries_;
      }
      SearchResponse resp;
      resp.request_id = req.request_id;
      resp.status = Status::Unavailable(
          "shed by admission control (estimated cost " +
          std::to_string(verdict->cost) + ")");
      out.ready = EncodeSearchResponse(resp);
      Push(conn, std::move(out));
      return;
    }
  }
  SearchService::RequestOptions opts;
  opts.top_k = req.top_k;
  opts.mode = ToCursorMode(req.mode);
  if (req.deadline_us > 0) {
    opts.timeout = std::chrono::microseconds(req.deadline_us);
  }
  // Submit blocks under back-pressure, which throttles this connection's
  // reader — intake slows instead of the queue growing without bound.
  out.pending = service_->Submit(req.query, opts);
  Push(conn, std::move(out));
}

void FtsServer::HandleHttp(Connection* conn, const char prefix[4]) {
  // Consume the request line (the four verb bytes are already read);
  // headers and bodies are ignored — these are GET/HEAD endpoints.
  std::string line(prefix, 4);
  while (line.size() < 4096 && line.back() != '\n') {
    char ch;
    if (!ReadFull(conn->sock, &ch, 1, std::chrono::milliseconds(2000)).ok()) {
      return;
    }
    line.push_back(ch);
  }
  const size_t path_begin = line.find(' ');
  const size_t path_end =
      path_begin == std::string::npos ? std::string::npos
                                      : line.find(' ', path_begin + 1);
  std::string path = path_end == std::string::npos
                         ? std::string()
                         : line.substr(path_begin + 1,
                                       path_end - path_begin - 1);
  std::string body;
  const char* status = "200 OK";
  if (path == "/metrics") {
    body = MetricsText();
  } else if (path == "/healthz" || path == "/") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string resp = std::string("HTTP/1.0 ") + status +
                     "\r\nContent-Type: text/plain; charset=utf-8"
                     "\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (std::memcmp(prefix, "HEAD", 4) != 0) resp += body;
  (void)WriteAll(conn->sock, resp);
}

std::string FtsServer::MetricsText() const {
  const ServiceMetricsSnapshot m = service_->metrics();
  const std::shared_ptr<const IndexSnapshot> snap = source_.snapshot();
  std::string out = "# fts server \"" + options_.name + "\"\n";
  const auto line = [&out](std::string_view key, uint64_t value) {
    out += key;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  line("fts_up", 1);
  line("fts_generation", snap->generation());
  line("fts_total_nodes", snap->total_nodes());
  line("fts_live_nodes", snap->live_nodes());
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
    line("fts_connections_accepted", accepted_connections_);
    line("fts_protocol_errors", protocol_errors_);
  }
  const EvalCounters& c = m.totals;
#define FTS_COUNTER_LINE(field, label) line("fts_eval_" #field, c.field);
  FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_LINE)
#undef FTS_COUNTER_LINE
  if (const SharedBlockCache* l2 = service_->shared_cache()) {
    const SharedBlockCache::Stats s = l2->stats();
    line("fts_l2_cache_hits", s.hits);
    line("fts_l2_cache_misses", s.misses);
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

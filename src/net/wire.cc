#include "net/wire.h"

#include <cstring>

#include "common/varint.h"

namespace fts {
namespace net {

namespace {

/// The counters in FTS_EVAL_COUNTER_FIELDS order (common/metrics.h): the
/// wire layout of EvalCounters (PutCounters writes this order, GetCounters
/// reads it).
void CounterFields(EvalCounters& c, uint64_t** fields) {
  size_t i = 0;
#define FTS_COUNTER_ADDRESS(field, label) fields[i++] = &c.field;
  FTS_EVAL_COUNTER_FIELDS(FTS_COUNTER_ADDRESS)
#undef FTS_COUNTER_ADDRESS
}

/// Appends the shared request/response prologue.
void PutPrologue(std::string* out, MessageType type, uint64_t request_id) {
  PutU8(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, request_id);
}

/// Wraps a finished payload in the length-prefix frame.
std::string Frame(std::string payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("wire: malformed frame: ") + what);
}

/// Consumes the prologue; fails on truncation or an unsupported version.
Status GetPrologue(WireReader& r, uint8_t* type, uint64_t* request_id) {
  uint8_t version = 0;
  if (!r.GetU8(&version) || !r.GetU8(type) || !r.GetU64(request_id)) {
    return Malformed("truncated prologue");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

/// GetPrologue, also failing on a type other than `expected`.
Status ReadPrologue(WireReader& r, MessageType expected, uint64_t* request_id) {
  uint8_t type = 0;
  FTS_RETURN_IF_ERROR(GetPrologue(r, &type, request_id));
  if (type != static_cast<uint8_t>(expected)) {
    return Malformed("unexpected message type");
  }
  return Status::OK();
}

/// Messages must consume the whole payload — trailing bytes mean the
/// sender and receiver disagree about the layout.
Status ExpectEnd(const WireReader& r) {
  if (!r.AtEnd()) return Malformed("trailing bytes after message body");
  return Status::OK();
}

/// A message with an empty body: the prologue alone.
std::string EncodeEmpty(MessageType type, uint64_t request_id) {
  std::string p;
  PutPrologue(&p, type, request_id);
  return Frame(std::move(p));
}

Status DecodeEmpty(std::string_view payload, MessageType type,
                   uint64_t* request_id) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(ReadPrologue(r, type, request_id));
  return ExpectEnd(r);
}

void PutStatus(std::string* out, const Status& s) {
  PutU8(out, static_cast<uint8_t>(s.code()));
  PutString(out, s.ok() ? std::string_view() : std::string_view(s.message()));
}

bool GetStatus(WireReader& r, Status* out) {
  uint8_t code = 0;
  std::string msg;
  if (!r.GetU8(&code) || !r.GetString(&msg)) return false;
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    // A code minted by a newer peer: preserve the message, surface it as
    // an internal error rather than inventing semantics for it.
    *out = Status::Internal("wire: unknown status code " +
                            std::to_string(code) + ": " + msg);
    return true;
  }
  if (code == 0) {
    *out = Status::OK();
  } else {
    *out = Status(static_cast<StatusCode>(code), std::move(msg));
  }
  return true;
}

void PutDfTable(std::string* out,
                const std::vector<std::pair<std::string, uint32_t>>& table) {
  PutU32(out, static_cast<uint32_t>(table.size()));
  for (const auto& [text, df] : table) {
    PutString(out, text);
    PutU32(out, df);
  }
}

bool GetDfTable(WireReader& r,
                std::vector<std::pair<std::string, uint32_t>>* out) {
  uint32_t n = 0;
  if (!r.GetU32(&n)) return false;
  // Each entry costs at least 8 bytes on the wire; a count promising more
  // entries than the remaining bytes could hold is a forged length.
  if (static_cast<uint64_t>(n) * 8 > r.remaining()) return false;
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string text;
    uint32_t df = 0;
    if (!r.GetString(&text) || !r.GetU32(&df)) return false;
    out->emplace_back(std::move(text), df);
  }
  return true;
}

}  // namespace

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) { PutFixed64Le(out, v); }

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutCounters(std::string* out, const EvalCounters& c) {
  uint64_t* fields[kNumEvalCounterFields];
  CounterFields(const_cast<EvalCounters&>(c), fields);
  PutU32(out, kNumEvalCounterFields);
  for (uint32_t i = 0; i < kNumEvalCounterFields; ++i) PutU64(out, *fields[i]);
}

bool WireReader::GetU8(uint8_t* v) {
  if (data_.size() - pos_ < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::GetU32(uint32_t* v) {
  if (data_.size() - pos_ < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool WireReader::GetU64(uint64_t* v) {
  if (data_.size() - pos_ < 8) return false;
  *v = LoadFixed64Le(data_.data() + pos_);
  pos_ += 8;
  return true;
}

bool WireReader::GetString(std::string* v) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (data_.size() - pos_ < len) return false;
  v->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool WireReader::GetDouble(double* v) {
  uint64_t bits = 0;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::GetCounters(EvalCounters* c) {
  uint32_t sent = 0;
  if (!GetU32(&sent)) return false;
  if (static_cast<uint64_t>(sent) * 8 > remaining()) return false;
  *c = EvalCounters{};
  uint64_t* fields[kNumEvalCounterFields];
  CounterFields(*c, fields);
  for (uint32_t i = 0; i < sent; ++i) {
    uint64_t v = 0;
    if (!GetU64(&v)) return false;
    // Fields beyond what this build knows are skipped: a newer peer's
    // extra counters are not an error (versioning rule, docs/serving.md).
    if (i < kNumEvalCounterFields) *fields[i] = v;
  }
  return true;
}

std::string EncodeSearchRequest(const SearchRequest& req) {
  std::string p;
  PutPrologue(&p, MessageType::kSearchRequest, req.request_id);
  PutU32(&p, req.top_k);
  PutU8(&p, static_cast<uint8_t>(req.mode));
  PutU64(&p, req.deadline_us);
  PutString(&p, req.query);
  return Frame(std::move(p));
}

Status DecodeSearchRequest(std::string_view payload, SearchRequest* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kSearchRequest, &out->request_id));
  uint8_t mode = 0;
  if (!r.GetU32(&out->top_k) || !r.GetU8(&mode) || !r.GetU64(&out->deadline_us) ||
      !r.GetString(&out->query)) {
    return Malformed("truncated search request");
  }
  if (mode > static_cast<uint8_t>(WireCursorMode::kAdaptive)) {
    return Malformed("unknown cursor mode");
  }
  out->mode = static_cast<WireCursorMode>(mode);
  return ExpectEnd(r);
}

std::string EncodeSearchResponse(const SearchResponse& resp) {
  std::string p;
  PutPrologue(&p, MessageType::kSearchResponse, resp.request_id);
  PutStatus(&p, resp.status);
  PutU8(&p, static_cast<uint8_t>(resp.language_class));
  PutString(&p, resp.engine);
  PutU8(&p, resp.scores.empty() ? 0 : 1);
  PutU32(&p, static_cast<uint32_t>(resp.nodes.size()));
  for (WireNodeId n : resp.nodes) PutU64(&p, n);
  for (double s : resp.scores) PutDouble(&p, s);
  PutCounters(&p, resp.counters);
  return Frame(std::move(p));
}

Status DecodeSearchResponse(std::string_view payload, SearchResponse* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kSearchResponse, &out->request_id));
  uint8_t cls = 0, has_scores = 0;
  uint32_t n = 0;
  if (!GetStatus(r, &out->status) || !r.GetU8(&cls) ||
      !r.GetString(&out->engine) || !r.GetU8(&has_scores) || !r.GetU32(&n)) {
    return Malformed("truncated search response");
  }
  if (cls > static_cast<uint8_t>(LanguageClass::kComp)) {
    return Malformed("unknown language class");
  }
  out->language_class = static_cast<LanguageClass>(cls);
  const uint64_t per_result = has_scores ? 16 : 8;
  if (static_cast<uint64_t>(n) * per_result > r.remaining()) {
    return Malformed("result count overruns frame");
  }
  out->nodes.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r.GetU64(&out->nodes[i])) return Malformed("truncated node list");
  }
  out->scores.clear();
  if (has_scores) {
    out->scores.assign(n, 0.0);
    for (uint32_t i = 0; i < n; ++i) {
      if (!r.GetDouble(&out->scores[i])) return Malformed("truncated scores");
    }
  }
  if (!r.GetCounters(&out->counters)) return Malformed("truncated counters");
  return ExpectEnd(r);
}

std::string EncodePingRequest(const PingRequest& req) {
  return EncodeEmpty(MessageType::kPingRequest, req.request_id);
}

Status DecodePingRequest(std::string_view payload, PingRequest* out) {
  return DecodeEmpty(payload, MessageType::kPingRequest, &out->request_id);
}

std::string EncodePingResponse(const PingResponse& resp) {
  std::string p;
  PutPrologue(&p, MessageType::kPingResponse, resp.request_id);
  PutString(&p, resp.server_name);
  PutU64(&p, resp.num_nodes);
  PutU64(&p, resp.generation);
  return Frame(std::move(p));
}

Status DecodePingResponse(std::string_view payload, PingResponse* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kPingResponse, &out->request_id));
  if (!r.GetString(&out->server_name) || !r.GetU64(&out->num_nodes) ||
      !r.GetU64(&out->generation)) {
    return Malformed("truncated ping response");
  }
  return ExpectEnd(r);
}

std::string EncodeStatsRequest(const StatsRequest& req) {
  return EncodeEmpty(MessageType::kStatsRequest, req.request_id);
}

Status DecodeStatsRequest(std::string_view payload, StatsRequest* out) {
  return DecodeEmpty(payload, MessageType::kStatsRequest, &out->request_id);
}

std::string EncodeStatsResponse(const StatsResponse& resp) {
  std::string p;
  PutPrologue(&p, MessageType::kStatsResponse, resp.request_id);
  PutU64(&p, resp.num_nodes);
  PutDfTable(&p, resp.df_by_text);
  return Frame(std::move(p));
}

Status DecodeStatsResponse(std::string_view payload, StatsResponse* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kStatsResponse, &out->request_id));
  if (!r.GetU64(&out->num_nodes) || !GetDfTable(r, &out->df_by_text)) {
    return Malformed("truncated stats response");
  }
  return ExpectEnd(r);
}

std::string EncodeSetGlobalStatsRequest(const SetGlobalStatsRequest& req) {
  std::string p;
  PutPrologue(&p, MessageType::kSetGlobalStatsRequest, req.request_id);
  PutU64(&p, req.global_live_nodes);
  PutDfTable(&p, req.df_by_text);
  return Frame(std::move(p));
}

Status DecodeSetGlobalStatsRequest(std::string_view payload,
                                   SetGlobalStatsRequest* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kSetGlobalStatsRequest, &out->request_id));
  if (!r.GetU64(&out->global_live_nodes) || !GetDfTable(r, &out->df_by_text)) {
    return Malformed("truncated set-global-stats request");
  }
  return ExpectEnd(r);
}

std::string EncodeSetGlobalStatsResponse(const SetGlobalStatsResponse& resp) {
  std::string p;
  PutPrologue(&p, MessageType::kSetGlobalStatsResponse, resp.request_id);
  PutStatus(&p, resp.status);
  return Frame(std::move(p));
}

Status DecodeSetGlobalStatsResponse(std::string_view payload,
                                    SetGlobalStatsResponse* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kSetGlobalStatsResponse, &out->request_id));
  if (!GetStatus(r, &out->status)) {
    return Malformed("truncated set-global-stats response");
  }
  return ExpectEnd(r);
}

std::string EncodeMetricsRequest(const MetricsRequest& req) {
  return EncodeEmpty(MessageType::kMetricsRequest, req.request_id);
}

Status DecodeMetricsRequest(std::string_view payload, MetricsRequest* out) {
  return DecodeEmpty(payload, MessageType::kMetricsRequest, &out->request_id);
}

std::string EncodeMetricsResponse(const MetricsResponse& resp) {
  std::string p;
  PutPrologue(&p, MessageType::kMetricsResponse, resp.request_id);
  PutString(&p, resp.text);
  return Frame(std::move(p));
}

Status DecodeMetricsResponse(std::string_view payload, MetricsResponse* out) {
  WireReader r(payload);
  FTS_RETURN_IF_ERROR(
      ReadPrologue(r, MessageType::kMetricsResponse, &out->request_id));
  if (!r.GetString(&out->text)) return Malformed("truncated metrics response");
  return ExpectEnd(r);
}

Status PeekPrologue(std::string_view payload, uint8_t* type,
                    uint64_t* request_id) {
  WireReader r(payload);
  return GetPrologue(r, type, request_id);
}

std::optional<CursorMode> ToCursorMode(WireCursorMode mode) {
  switch (mode) {
    case WireCursorMode::kDefault:
      return std::nullopt;
    case WireCursorMode::kSequential:
      return CursorMode::kSequential;
    case WireCursorMode::kSeek:
      return CursorMode::kSeek;
    case WireCursorMode::kAdaptive:
      return CursorMode::kAdaptive;
  }
  return std::nullopt;
}

}  // namespace net
}  // namespace fts

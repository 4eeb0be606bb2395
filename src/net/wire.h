// Wire protocol of the network serving layer (docs/serving.md).
//
// Framing: every message is one length-prefixed frame —
//
//   [u32 LE payload_length][payload bytes]
//
// with payload_length bounded by kMaxFrameBytes; a peer that reads a
// larger declared length must treat the stream as poisoned and close the
// connection (the length cannot be trusted, so no resynchronization is
// possible). Every payload starts with a fixed two-byte prologue:
//
//   offset 0  u8 protocol version (kProtocolVersion)
//   offset 1  u8 message type (MessageType)
//   offset 2  u64 LE request id, echoed verbatim in the response
//
// followed by the type-specific body. All integers are little-endian and
// fixed-width; strings are a u32 byte length followed by raw bytes; score
// doubles travel as their IEEE-754 bit patterns in u64, so a score is
// bit-identical after a round trip. EvalCounters are a u32 field count
// followed by that many u64 values in struct declaration order — a decoder
// reads min(sent, known) fields and skips the rest, so adding a counter is
// a backward-compatible protocol change (versioning rules in
// docs/serving.md).
//
// Decoding never trusts the peer: every read is bounds-checked against the
// frame, and any violation (truncated field, length overrunning the
// payload, unknown protocol version) fails with InvalidArgument — the
// server answers what it can attribute to a request id and closes the
// connection otherwise.

#ifndef FTS_NET_WIRE_H_
#define FTS_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "eval/engine.h"
#include "lang/classify.h"

namespace fts {
namespace net {

/// Protocol version spoken by this library. A peer receiving a frame with
/// a different version responds with an error status (requests) or fails
/// the call (responses); it never guesses at the body layout.
inline constexpr uint8_t kProtocolVersion = 1;

/// Hard bound on one frame's payload. Chosen to admit full results over
/// the benchmark corpora and full dictionary stats exchanges with two
/// orders of magnitude of headroom, while bounding what one malicious or
/// corrupt length prefix can make a peer allocate.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes of the length prefix that fronts every frame.
inline constexpr size_t kFrameHeaderBytes = 4;

enum class MessageType : uint8_t {
  kSearchRequest = 1,
  kSearchResponse = 2,
  kPingRequest = 3,
  kPingResponse = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kSetGlobalStatsRequest = 7,
  kSetGlobalStatsResponse = 8,
  kMetricsRequest = 9,
  kMetricsResponse = 10,
};

/// Node ids on the wire are 64-bit: a scatter-gather router rebases each
/// shard's 32-bit local ids into a global space that outgrows NodeId.
using WireNodeId = uint64_t;

/// How a search request selects the cursor access mode. kDefault defers
/// to the serving process's configured mode.
enum class WireCursorMode : uint8_t {
  kDefault = 0,
  kSequential = 1,
  kSeek = 2,
  kAdaptive = 3,
};

struct SearchRequest {
  uint64_t request_id = 0;
  /// Ranked retrieval: return only the top_k best (0 = full results).
  uint32_t top_k = 0;
  WireCursorMode mode = WireCursorMode::kDefault;
  /// Per-request deadline in microseconds from receipt; 0 = none.
  uint64_t deadline_us = 0;
  std::string query;
};

struct SearchResponse {
  uint64_t request_id = 0;
  /// Evaluation outcome. On error the result fields below are empty.
  Status status;
  /// LanguageClass of the query as classified by the server.
  LanguageClass language_class = LanguageClass::kComp;
  /// Engine that served the query ("BOOL"/"PPRED"/"NPRED"/"COMP"/"NONE").
  std::string engine;
  std::vector<WireNodeId> nodes;
  /// Parallel to nodes; empty when the server scores with kNone.
  std::vector<double> scores;
  EvalCounters counters;
};

struct PingRequest {
  uint64_t request_id = 0;
};

struct PingResponse {
  uint64_t request_id = 0;
  std::string server_name;
  /// Total nodes in the served snapshot (the id space a router must
  /// reserve for this shard).
  uint64_t num_nodes = 0;
  uint64_t generation = 0;
};

struct StatsRequest {
  uint64_t request_id = 0;
};

/// A shard's local corpus statistics, gathered by the router to compute
/// the global scoring inputs (docs/serving.md, "Exact scoring across
/// shards").
struct StatsResponse {
  uint64_t request_id = 0;
  uint64_t num_nodes = 0;
  /// (token text, live document frequency) for every token with a live
  /// occurrence: token dfs only, no pair-list keys.
  std::vector<std::pair<std::string, uint32_t>> df_by_text;
};

/// Global scoring inputs pushed back to each shard: the sum of every
/// shard's StatsResponse. The shard rebuilds its snapshot with these via
/// IndexSnapshot::CreateSharded, after which its scores are bit-identical
/// to a single-index build of the full corpus.
struct SetGlobalStatsRequest {
  uint64_t request_id = 0;
  uint64_t global_live_nodes = 0;
  std::vector<std::pair<std::string, uint32_t>> df_by_text;
};

struct SetGlobalStatsResponse {
  uint64_t request_id = 0;
  Status status;
};

struct MetricsRequest {
  uint64_t request_id = 0;
};

struct MetricsResponse {
  uint64_t request_id = 0;
  /// The same plain-text body the HTTP /metrics endpoint serves.
  std::string text;
};

// --- primitive append helpers (always succeed; buffer grows) ------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);
void PutDouble(std::string* out, double v);
void PutCounters(std::string* out, const EvalCounters& c);

// --- bounds-checked reader ----------------------------------------------

/// Sequential bounds-checked decoder over one frame payload. Every Get*
/// returns false (and leaves the output untouched) on a truncated or
/// overrunning field; callers surface that as InvalidArgument.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetString(std::string* v);
  bool GetDouble(double* v);
  bool GetCounters(EvalCounters* c);

  /// True when the whole payload has been consumed — messages must not
  /// carry trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- message encode/decode ----------------------------------------------
//
// Encode* produce a complete frame (length prefix included), ready to
// write to a socket. Decode* take one frame's *payload* (length prefix
// already stripped by the transport) and fail with InvalidArgument on any
// malformed field, wrong type byte, or unsupported protocol version.

std::string EncodeSearchRequest(const SearchRequest& req);
std::string EncodeSearchResponse(const SearchResponse& resp);
std::string EncodePingRequest(const PingRequest& req);
std::string EncodePingResponse(const PingResponse& resp);
std::string EncodeStatsRequest(const StatsRequest& req);
std::string EncodeStatsResponse(const StatsResponse& resp);
std::string EncodeSetGlobalStatsRequest(const SetGlobalStatsRequest& req);
std::string EncodeSetGlobalStatsResponse(const SetGlobalStatsResponse& resp);
std::string EncodeMetricsRequest(const MetricsRequest& req);
std::string EncodeMetricsResponse(const MetricsResponse& resp);

/// Peeks the prologue of a frame payload without consuming the body.
/// Fails on unknown protocol versions; unknown type bytes are returned
/// as-is (the dispatcher decides whether it can serve them).
Status PeekPrologue(std::string_view payload, uint8_t* type,
                    uint64_t* request_id);

Status DecodeSearchRequest(std::string_view payload, SearchRequest* out);
Status DecodeSearchResponse(std::string_view payload, SearchResponse* out);
Status DecodePingRequest(std::string_view payload, PingRequest* out);
Status DecodePingResponse(std::string_view payload, PingResponse* out);
Status DecodeStatsRequest(std::string_view payload, StatsRequest* out);
Status DecodeStatsResponse(std::string_view payload, StatsResponse* out);
Status DecodeSetGlobalStatsRequest(std::string_view payload,
                                   SetGlobalStatsRequest* out);
Status DecodeSetGlobalStatsResponse(std::string_view payload,
                                    SetGlobalStatsResponse* out);
Status DecodeMetricsRequest(std::string_view payload, MetricsRequest* out);
Status DecodeMetricsResponse(std::string_view payload, MetricsResponse* out);

/// Maps a wire cursor-mode byte onto the engine enum; nullopt for
/// kDefault (use the serving process's configured mode).
std::optional<CursorMode> ToCursorMode(WireCursorMode mode);

}  // namespace net
}  // namespace fts

#endif  // FTS_NET_WIRE_H_

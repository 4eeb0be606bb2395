// Wire protocol tests: encode/decode roundtrips for every message type
// (score doubles bit-identical), prologue peeking, and the fail-closed
// decoder contract — truncation at every byte boundary, trailing garbage,
// wrong type bytes, unknown protocol versions, forged length fields — plus
// the forward-compatibility rule for EvalCounters (extra fields from a
// newer peer are skipped, not an error).

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace fts {
namespace net {
namespace {

/// Strips the length prefix off a complete frame, checking it matches.
std::string Payload(const std::string& frame) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes);
  uint32_t declared = 0;
  std::memcpy(&declared, frame.data(), 4);  // test host is little-endian x86
  EXPECT_EQ(declared, frame.size() - kFrameHeaderBytes);
  return frame.substr(kFrameHeaderBytes);
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(NetWireTest, SearchRequestRoundtrip) {
  SearchRequest req;
  req.request_id = 0x1122334455667788ull;
  req.top_k = 25;
  req.mode = WireCursorMode::kSeek;
  req.deadline_us = 1500000;
  req.query = "SOME p (p HAS 'apple' AND NOT samesentence(p, p))";

  SearchRequest got;
  ASSERT_TRUE(DecodeSearchRequest(Payload(EncodeSearchRequest(req)), &got).ok());
  EXPECT_EQ(got.request_id, req.request_id);
  EXPECT_EQ(got.top_k, req.top_k);
  EXPECT_EQ(got.mode, req.mode);
  EXPECT_EQ(got.deadline_us, req.deadline_us);
  EXPECT_EQ(got.query, req.query);
}

TEST(NetWireTest, SearchResponseRoundtripScoresBitIdentical) {
  SearchResponse resp;
  resp.request_id = 42;
  resp.status = Status::OK();
  resp.language_class = LanguageClass::kNpred;
  resp.engine = "NPRED";
  resp.nodes = {0, 7, 1u << 20, 0xFFFFFFFFull + 3};  // a rebased 64-bit id
  resp.scores = {0.1, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
                 -0.0};
  resp.counters.entries_scanned = 123;
  resp.counters.bitset_blocks_intersected = 456;  // last declared field

  SearchResponse got;
  ASSERT_TRUE(
      DecodeSearchResponse(Payload(EncodeSearchResponse(resp)), &got).ok());
  EXPECT_EQ(got.request_id, resp.request_id);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.language_class, resp.language_class);
  EXPECT_EQ(got.engine, resp.engine);
  EXPECT_EQ(got.nodes, resp.nodes);
  ASSERT_EQ(got.scores.size(), resp.scores.size());
  for (size_t i = 0; i < resp.scores.size(); ++i) {
    EXPECT_EQ(Bits(got.scores[i]), Bits(resp.scores[i])) << i;
  }
  EXPECT_EQ(got.counters.entries_scanned, 123u);
  EXPECT_EQ(got.counters.bitset_blocks_intersected, 456u);
}

TEST(NetWireTest, SearchResponseCarriesErrorStatus) {
  SearchResponse resp;
  resp.request_id = 9;
  resp.status = Status::InvalidArgument("parse error at token 3");

  SearchResponse got;
  ASSERT_TRUE(
      DecodeSearchResponse(Payload(EncodeSearchResponse(resp)), &got).ok());
  EXPECT_EQ(got.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.status.message(), "parse error at token 3");
  EXPECT_TRUE(got.nodes.empty());
}

TEST(NetWireTest, PingStatsGlobalStatsMetricsRoundtrip) {
  PingResponse ping;
  ping.request_id = 5;
  ping.server_name = "shard-1";
  ping.num_nodes = 123456789;
  ping.generation = 7;
  PingResponse ping_got;
  ASSERT_TRUE(
      DecodePingResponse(Payload(EncodePingResponse(ping)), &ping_got).ok());
  EXPECT_EQ(ping_got.server_name, "shard-1");
  EXPECT_EQ(ping_got.num_nodes, 123456789u);
  EXPECT_EQ(ping_got.generation, 7u);

  StatsResponse stats;
  stats.request_id = 6;
  stats.num_nodes = 400;
  stats.df_by_text = {{"apple", 17}, {"", 3}, {"zebra", 1}};
  StatsResponse stats_got;
  ASSERT_TRUE(
      DecodeStatsResponse(Payload(EncodeStatsResponse(stats)), &stats_got).ok());
  EXPECT_EQ(stats_got.num_nodes, 400u);
  EXPECT_EQ(stats_got.df_by_text, stats.df_by_text);

  SetGlobalStatsRequest set;
  set.request_id = 7;
  set.global_live_nodes = 1200;
  set.df_by_text = {{"apple", 51}};
  SetGlobalStatsRequest set_got;
  ASSERT_TRUE(DecodeSetGlobalStatsRequest(
                  Payload(EncodeSetGlobalStatsRequest(set)), &set_got)
                  .ok());
  EXPECT_EQ(set_got.global_live_nodes, 1200u);
  EXPECT_EQ(set_got.df_by_text, set.df_by_text);

  MetricsResponse metrics;
  metrics.request_id = 8;
  metrics.text = "fts_up 1\nfts_total_nodes 400\n";
  MetricsResponse metrics_got;
  ASSERT_TRUE(DecodeMetricsResponse(Payload(EncodeMetricsResponse(metrics)),
                                    &metrics_got)
                  .ok());
  EXPECT_EQ(metrics_got.text, metrics.text);
}

TEST(NetWireTest, PeekPrologueReadsTypeAndIdWithoutBody) {
  SearchRequest req;
  req.request_id = 777;
  req.query = "'x'";
  const std::string payload = Payload(EncodeSearchRequest(req));
  uint8_t type = 0;
  uint64_t id = 0;
  ASSERT_TRUE(PeekPrologue(payload, &type, &id).ok());
  EXPECT_EQ(type, static_cast<uint8_t>(MessageType::kSearchRequest));
  EXPECT_EQ(id, 777u);
}

TEST(NetWireTest, UnsupportedVersionRejected) {
  SearchRequest req;
  req.query = "'x'";
  std::string payload = Payload(EncodeSearchRequest(req));
  payload[0] = static_cast<char>(kProtocolVersion + 1);
  uint8_t type = 0;
  uint64_t id = 0;
  EXPECT_EQ(PeekPrologue(payload, &type, &id).code(),
            StatusCode::kInvalidArgument);
  SearchRequest out;
  EXPECT_EQ(DecodeSearchRequest(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, WrongMessageTypeRejected) {
  PingRequest ping;
  ping.request_id = 1;
  SearchRequest out;
  EXPECT_EQ(DecodeSearchRequest(Payload(EncodePingRequest(ping)), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, TruncationAtEveryByteFailsCleanly) {
  SearchResponse resp;
  resp.request_id = 3;
  resp.engine = "BOOL";
  resp.nodes = {1, 2, 3};
  resp.scores = {0.5, 0.25, 0.125};
  const std::string payload = Payload(EncodeSearchResponse(resp));
  for (size_t len = 0; len < payload.size(); ++len) {
    SearchResponse out;
    EXPECT_EQ(
        DecodeSearchResponse(std::string_view(payload.data(), len), &out).code(),
        StatusCode::kInvalidArgument)
        << "prefix length " << len;
  }
}

TEST(NetWireTest, TrailingGarbageRejected) {
  SearchRequest req;
  req.query = "'x'";
  std::string payload = Payload(EncodeSearchRequest(req));
  payload.push_back('\0');
  SearchRequest out;
  EXPECT_EQ(DecodeSearchRequest(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, ForgedResultCountRejected) {
  // A declared node count far larger than the remaining bytes must be
  // rejected up front (no allocation of the declared size).
  SearchResponse resp;
  resp.request_id = 3;
  resp.engine = "BOOL";
  std::string payload = Payload(EncodeSearchResponse(resp));
  // Locate the u32 node count: prologue(10) + status(1+4) + class(1) +
  // engine(4+4) + has_scores(1) = 25 bytes in.
  const size_t count_off = 25;
  const uint32_t forged = 0x10000000;
  std::memcpy(payload.data() + count_off, &forged, 4);
  SearchResponse out;
  EXPECT_EQ(DecodeSearchResponse(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetWireTest, ExtraCounterFieldsFromNewerPeerAreSkipped) {
  // Hand-build a search response whose counters block claims two more
  // fields than this build declares — the decoder must read what it knows
  // and skip the rest (the versioning rule that makes adding a counter a
  // compatible change).
  std::string p;
  PutU8(&p, kProtocolVersion);
  PutU8(&p, static_cast<uint8_t>(MessageType::kSearchResponse));
  PutU64(&p, 11);                      // request id
  PutU8(&p, 0);                        // status code kOk
  PutString(&p, "");                   // status message
  PutU8(&p, 0);                        // language class kBoolNoNeg
  PutString(&p, "BOOL");               // engine
  PutU8(&p, 0);                        // no scores
  PutU32(&p, 0);                       // no nodes
  std::string counters;
  PutCounters(&counters, EvalCounters{});
  uint32_t declared = 0;
  std::memcpy(&declared, counters.data(), 4);
  const uint32_t inflated = declared + 2;
  std::memcpy(counters.data(), &inflated, 4);
  counters.append(16, '\x7f');         // two unknown u64 fields
  p += counters;

  SearchResponse out;
  const Status s = DecodeSearchResponse(p, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.request_id, 11u);
  EXPECT_EQ(out.engine, "BOOL");
}

TEST(NetWireTest, PairCounterFieldsRoundtripAsTrailingFields) {
  // The pair-index counters were appended to the counter block (the only
  // wire-compatible position); pin that they ride the existing roundtrip
  // and occupy the declared tail so both compat directions below hold.
  SearchResponse resp;
  resp.request_id = 12;
  resp.engine = "PPRED";
  resp.counters.entries_scanned = 7;
  resp.counters.pair_seeks = 31;
  resp.counters.pair_entries_decoded = 1009;  // last declared field

  SearchResponse got;
  ASSERT_TRUE(
      DecodeSearchResponse(Payload(EncodeSearchResponse(resp)), &got).ok());
  EXPECT_EQ(got.counters.entries_scanned, 7u);
  EXPECT_EQ(got.counters.pair_seeks, 31u);
  EXPECT_EQ(got.counters.pair_entries_decoded, 1009u);
}

TEST(NetWireTest, MissingPairCounterFieldsFromOlderPeerZeroFill) {
  // A peer built before the pair counters declares two fewer fields; the
  // decoder must accept the short block, fill what it got, and leave the
  // pair counters zero (the versioning rule's backward direction — the
  // forward direction, extra unknown fields, is pinned above).
  SearchResponse resp;
  resp.request_id = 13;
  resp.engine = "PPRED";
  resp.counters.entries_scanned = 99;
  resp.counters.pair_seeks = 5;            // will be cut off the wire image
  resp.counters.pair_entries_decoded = 6;  // likewise
  std::string payload = Payload(EncodeSearchResponse(resp));

  // The counter block is the payload's tail: [u32 count][count u64s].
  // Rewrite it as an older peer would have sent it — two fewer fields.
  const size_t count_off = payload.size() - 4 - 8 * 21;
  uint32_t declared = 0;
  std::memcpy(&declared, payload.data() + count_off, 4);
  ASSERT_EQ(declared, 21u);  // field count at the expected offset
  const uint32_t shrunk = declared - 2;
  std::memcpy(payload.data() + count_off, &shrunk, 4);
  payload.resize(payload.size() - 16);

  SearchResponse got;
  const Status s = DecodeSearchResponse(payload, &got);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.counters.entries_scanned, 99u);
  EXPECT_EQ(got.counters.pair_seeks, 0u);
  EXPECT_EQ(got.counters.pair_entries_decoded, 0u);
}

TEST(NetWireTest, CountersToStringNamesEveryFieldInOrder) {
  // The counters line printed by examples and tools: one label per field,
  // in declaration (= wire) order.
  EvalCounters c;
  c.entries_scanned = 1;
  c.positions_scanned = 2;
  c.tuples_materialized = 3;
  c.predicate_evals = 4;
  c.cursor_ops = 5;
  c.orderings_run = 6;
  c.skip_checks = 7;
  c.blocks_decoded = 8;
  c.entries_decoded = 9;
  c.positions_decoded = 10;
  c.blocks_bulk_decoded = 11;
  c.cache_hits = 12;
  c.cache_misses = 13;
  c.shared_cache_hits = 14;
  c.shared_cache_misses = 15;
  c.first_touch_validations = 16;
  c.blocks_skipped_by_score = 17;
  c.simd_groups_decoded = 18;
  c.bitset_blocks_intersected = 19;
  c.pair_seeks = 20;
  c.pair_entries_decoded = 21;
  EXPECT_EQ(c.ToString(),
            "entries=1 positions=2 tuples=3 preds=4 cursor_ops=5 orderings=6 "
            "skip_checks=7 blocks_decoded=8 entries_decoded=9 positions_decoded=10 "
            "blocks_bulk_decoded=11 cache_hits=12 cache_misses=13 l2_hits=14 "
            "l2_misses=15 first_touch=16 blocks_skipped_by_score=17 simd_groups=18 "
            "bitset_ands=19 pair_seeks=20 pair_entries=21");
  // Accumulation covers every field too.
  EvalCounters twice = c;
  twice += c;
  EXPECT_EQ(twice.pair_entries_decoded, 42u);
  EXPECT_EQ(twice.entries_scanned, 2u);
}

TEST(NetWireTest, CursorModeMapping) {
  EXPECT_FALSE(ToCursorMode(WireCursorMode::kDefault).has_value());
  EXPECT_EQ(ToCursorMode(WireCursorMode::kSequential), CursorMode::kSequential);
  EXPECT_EQ(ToCursorMode(WireCursorMode::kSeek), CursorMode::kSeek);
  EXPECT_EQ(ToCursorMode(WireCursorMode::kAdaptive), CursorMode::kAdaptive);
}

TEST(NetWireTest, UnknownCursorModeInRequestRejected) {
  SearchRequest req;
  req.query = "'x'";
  std::string payload = Payload(EncodeSearchRequest(req));
  // mode byte: prologue(10) + top_k(4) = offset 14.
  payload[14] = 9;
  SearchRequest out;
  EXPECT_EQ(DecodeSearchRequest(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace net
}  // namespace fts

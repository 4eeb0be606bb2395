// e2e_bench: the end-to-end serving benchmark (bench/e2e/README.md).
//
// Four workloads run through the shipped serving paths: paper_mix and
// uniform_mmap against one fts_server, ranked_sharded against three
// fts_server shards behind fts_router, and ingest_live through
// IngestService + SearchService in process (no server binary ingests).
// For each workload the program builds the inputs from --seed, sets the
// system up several times (timing each), checks a stratified sample of
// served replies bit for bit against an in-process reference, then runs an
// untimed warm-up and five timed rounds of an open loop and a closed loop.
// It prints every metric by name with its unit, then two JSON lines per
// workload: a summary naming the workload with every metric measured, and
// the result line with the end-to-end metrics that carry a regression
// bound (or, with --trace 1, the per-layer ones).
//
// --trace repeats the timed phases with client-side request spans and
// then replays a query sample through each layer boundary from outside,
// innermost first (lang, eval, exec, net, router), to attribute the
// served latency to layers.

#include <sys/prctl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/varint_simd.h"
#include "eval/searcher.h"
#include "exec/ingest_service.h"
#include "exec/search_service.h"
#include "harness.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "lang/classify.h"
#include "lang/parser.h"
#include "net/client.h"
#include "net/wire.h"
#include "workloads.h"

namespace fts::e2e {
namespace {

namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
  /// In the result line; every metric is in the table and the summary
  /// line. Left out: times that a workload without the layer could only
  /// report as a constant 0, and the serving latencies and throughput.
  bool in_result = true;
};

/// End-to-end metrics: what a user of the serving system sees. On the host
/// the benchmark was calibrated on, the latencies and the throughput
/// spread by 3-44% over sets of five or ten runs, one seed or several,
/// with the host's own speed (README, Repeatability), so they are printed
/// but not in the result line, whose metrics carry regression bounds.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"index_bytes_per_text_byte", "ratio"},
    {"server_rss_mb", "MiB"},
    {"p50_ms", "ms", false},
    {"p90_ms", "ms", false},
    {"p99_ms", "ms", false},
    {"qps", "1/s", false},
};

/// Per-layer metrics, named after the src/ modules. Counter ratios come
/// from the replies of the untraced run; times come from the traced replay.
/// A metric a workload cannot have (router numbers without a router,
/// writer numbers without a writer) reads 0.
constexpr MetricDef kPerLayer[] = {
    {"lang.parse_us_p50", "us"},
    {"lang.classify_us_p50", "us"},
    {"eval.search_us_p50", "us"},
    {"eval.search_us_p99", "us"},
    {"eval.search_us_p50.BOOL", "us"},
    {"eval.search_us_p50.PPRED", "us"},
    {"eval.search_us_p50.NPRED", "us", false},
    {"eval.search_us_p50.COMP", "us", false},
    {"eval.entries_decoded_per_result", "ratio"},
    {"eval.positions_decoded_per_query", "count"},
    {"eval.skip_checks_per_query", "count"},
    {"eval.orderings_per_query", "count"},
    {"eval.tuples_per_query", "count"},
    {"eval.topk_skip_frac", "ratio"},
    {"eval.pair_route_frac", "ratio"},
    {"index.blocks_decoded_per_query", "count"},
    {"index.l1_hit_ratio", "ratio"},
    {"index.l2_hit_ratio", "ratio"},
    {"index.bitset_ands_per_query", "count"},
    {"index.first_touch_per_query", "count"},
    {"index.build_s", "s"},
    {"index.load_s", "s"},
    {"index.file_bytes", "bytes"},
    {"index.l2_resident_bytes", "bytes"},
    {"exec.service_us_p50", "us"},
    {"exec.dispatch_us_p50", "us"},
    {"exec.peak_queue_depth", "count"},
    {"exec.add_us_p50", "us", false},
    {"exec.add_p99_ms", "ms", false},
    {"exec.seal_ms_p50", "ms", false},
    {"exec.delete_ms_p50", "ms", false},
    {"exec.compactions", "count"},
    {"exec.segments_per_query_mean", "count"},
    {"exec.spill_bytes", "bytes"},
    {"net.ping_us_p50", "us", false},
    {"net.rtt_us_p50", "us", false},
    {"net.self_us_p50", "us", false},
    {"net.encode_us_p50", "us"},
    {"net.decode_us_p50", "us"},
    {"net.response_bytes_mean", "bytes"},
    {"net.router_self_us_p50", "us", false},
    {"net.straggler_ratio_p50", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr size_t kGateQueries = 200;
constexpr size_t kGateMinPerShape = 10;
constexpr size_t kReplayQueries = 500;
/// Closed-loop shape: connections x requests in flight per connection.
constexpr int kClosedConnections = 2;
constexpr int kClosedDepth = 4;
/// Open-loop connections.
constexpr int kOpenConnections = 2;
/// Requests a closed loop draws per second of its phase, cycling when it
/// runs faster (only the cheapest workload comes near).
constexpr double kClosedQueriesPerSecond = 40000;

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  fs::path out = "e2e_out";
  fs::path bin_dir;
};

/// Phase lengths. The timed --seconds are split into rounds, each an open
/// loop (two thirds) then a closed loop (one third), so both loops sample
/// the host's speed, which drifts by tens of percent over seconds, at the
/// same moments. An untimed warm-up of 0.15 x --seconds comes first.
struct Phases {
  double warmup = 0;
  int rounds = 1;
  double open = 0;    ///< per round
  double closed = 0;  ///< per round
};

constexpr int kRounds = 5;

Phases PhasesFor(const Options& opt) {
  if (opt.smoke) return Phases{0.5, 1, 1, 1};
  return Phases{0.15 * opt.seconds, kRounds, 2.0 / 3 * opt.seconds / kRounds,
                1.0 / 3 * opt.seconds / kRounds};
}

/// Independent deterministic streams derived from --seed.
enum Stream : uint64_t {
  kPoolStream = 1,
  kWarmupStream,
  kOpenStream,
  kClosedStream,
  kGateStream,
  kReplayStream,
  kWriterStream,
};

Rng StreamRng(uint64_t seed, Stream s) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(s));
}

struct Span {
  uint64_t trace_id;
  const char* span;
  const char* parent;
  int64_t start_ns;
  int64_t end_ns;
};

struct Result {
  std::string workload;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<Span> spans;
};

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- correctness gate --------------------------------------------------------

/// Compares one served reply with the reference evaluation, node ids and
/// score bits both.
void CheckReply(const std::string& workload, const std::string& query,
                const std::vector<uint64_t>& got_nodes,
                const std::vector<double>& got_scores, const RoutedResult& want) {
  const std::vector<NodeId>& nodes = want.result.nodes;
  const std::vector<double>& scores = want.result.scores;
  bool same = got_nodes.size() == nodes.size() && got_scores.size() == scores.size();
  for (size_t i = 0; same && i < nodes.size(); ++i) {
    same = got_nodes[i] == nodes[i];
  }
  if (same && !scores.empty()) {
    same = std::memcmp(got_scores.data(), scores.data(),
                       scores.size() * sizeof(double)) == 0;
  }
  if (!same) {
    Fail("correctness gate: workload " + workload + ": query " + query +
         ": served " + std::to_string(got_nodes.size()) + " results, reference " +
         std::to_string(nodes.size()) + " (ids or score bits differ)");
  }
}

/// The reference: sequential cursors, no pair routing, one index.
Searcher ReferenceSearcher(std::shared_ptr<const IndexSnapshot> snapshot,
                           ScoringKind scoring) {
  return Searcher(std::move(snapshot),
                  SearcherOptions{scoring, CursorMode::kSequential, PairRouting::kOff});
}

RoutedResult ReferenceSearch(const Searcher& ref, const std::string& query,
                             uint32_t top_k) {
  ExecContext ctx;
  ctx.set_top_k(top_k);
  StatusOr<RoutedResult> r = ref.Search(query, ctx);
  if (!r.ok()) Fail("reference search failed: " + query + ": " + r.status().ToString());
  return std::move(r).value();
}

// --- metrics from replies ----------------------------------------------------

/// The queries of every round's open and closed loop (Reply::query
/// indexes the round's list).
struct RoundQueries {
  std::vector<std::vector<Query>> open, closed;

  RoundQueries(const QueryMix& mix, const Phases& ph, double rate, uint64_t seed) {
    Rng open_rng = StreamRng(seed, kOpenStream);
    Rng closed_rng = StreamRng(seed, kClosedStream);
    for (int r = 0; r < ph.rounds; ++r) {
      open.push_back(mix.Draw(static_cast<size_t>(rate * ph.open), &open_rng));
      closed.push_back(
          mix.Draw(static_cast<size_t>(kClosedQueriesPerSecond * ph.closed), &closed_rng));
    }
  }
};

/// The replies of one round.
struct Round {
  std::vector<Reply> open, closed;
  int64_t closed_end_ns = 0;
};

using TimedRun = std::vector<Round>;

/// Open-loop latency, closed-loop throughput and failures of one run.
struct LoadSummary {
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  size_t samples = 0;
  double qps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// How late the open loop sent its requests.
  double lag_p99_ms = 0;
  double lag_max_ms = 0;
};

/// Percentiles and throughput pool every round. On the host this was
/// calibrated on, waking a sleeping thread takes 30 us at the median and
/// over a millisecond once in a thousand; a routed request wakes about
/// fifteen threads, so the 99th percentile of a sub-millisecond pipeline
/// measures those outliers, and the 90th is printed beside it.
LoadSummary Summarize(const TimedRun& run, const Phases& ph) {
  LoadSummary s;
  std::vector<double> lat, lag;
  uint64_t ok_in_windows = 0;
  for (const Round& round : run) {
    for (const Reply& r : round.open) {
      lat.push_back(r.LatencyMs());
      lag.push_back(static_cast<double>(r.sent_ns - r.sched_ns) * 1e-6);
      if (!r.ok) ++s.failed;
    }
    for (const Reply& r : round.closed) {
      if (!r.ok) ++s.failed;
      if (r.ok && r.done_ns <= round.closed_end_ns) ++ok_in_windows;
    }
    s.attempted += round.open.size() + round.closed.size();
  }
  s.p50_ms = Percentile(lat, 0.5);
  s.p90_ms = Percentile(lat, 0.9);
  s.p99_ms = Percentile(lat, 0.99);
  s.samples = lat.size();
  s.qps = static_cast<double>(ok_in_windows) / (ph.rounds * ph.closed);
  s.lag_p99_ms = Percentile(lag, 0.99);
  s.lag_max_ms = Percentile(lag, 1);
  return s;
}

void PrintLoad(const std::string& workload, const LoadSummary& s, const Phases& ph,
               double rate) {
  std::printf("%s: %d rounds of %.1f s open loop at %.0f/s (send lag p99 %.3f ms, "
              "max %.3f ms) and %.1f s closed loop; %llu of %llu requests failed\n",
              workload.c_str(), ph.rounds, ph.open, rate, s.lag_p99_ms, s.lag_max_ms,
              ph.closed, static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.attempted));
  std::printf("%s: %zu open-loop samples\n", workload.c_str(), s.samples);
}

void PrintSetups(const std::string& workload, const std::vector<double>& setup_s) {
  std::printf("%s: set-ups took", workload.c_str());
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");
}

/// Counter ratios over the replies of the untraced run. Phrase and NEAR
/// shaped queries are the ones a pair list could answer, once per shard.
void AddCounterMetrics(const TimedRun& run, const RoundQueries& queries,
                       const QueryMix& mix, uint32_t shards, Result* out) {
  EvalCounters c;
  double ok = 0, results = 0, pair_queries = 0;
  const auto add = [&](const std::vector<Reply>& replies, const std::vector<Query>& qs) {
    for (const Reply& r : replies) {
      if (!r.ok) continue;
      ++ok;
      results += r.results;
      c.MergeFrom(r.counters);
      const std::string& shape = mix.shapes()[qs[r.query].shape].name;
      if (shape == "PHRASE" || shape == "NEAR") ++pair_queries;
    }
  };
  for (size_t i = 0; i < run.size(); ++i) {
    add(run[i].open, queries.open[i]);
    add(run[i].closed, queries.closed[i]);
  }
  auto& m = out->metrics;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  m["eval.entries_decoded_per_result"] = Ratio(d(c.entries_decoded), results);
  m["eval.positions_decoded_per_query"] = Ratio(d(c.positions_decoded), ok);
  m["eval.skip_checks_per_query"] = Ratio(d(c.skip_checks), ok);
  m["eval.orderings_per_query"] = Ratio(d(c.orderings_run), ok);
  m["eval.tuples_per_query"] = Ratio(d(c.tuples_materialized), ok);
  m["eval.topk_skip_frac"] =
      Ratio(d(c.blocks_skipped_by_score), d(c.blocks_skipped_by_score + c.blocks_decoded));
  m["eval.pair_route_frac"] = Ratio(d(c.pair_seeks), pair_queries * shards);
  m["index.blocks_decoded_per_query"] = Ratio(d(c.blocks_decoded), ok);
  m["index.l1_hit_ratio"] = Ratio(d(c.cache_hits), d(c.cache_hits + c.cache_misses));
  m["index.l2_hit_ratio"] =
      Ratio(d(c.shared_cache_hits), d(c.shared_cache_hits + c.shared_cache_misses));
  m["index.bitset_ands_per_query"] = Ratio(d(c.bitset_blocks_intersected), ok);
  m["index.first_touch_per_query"] = Ratio(d(c.first_touch_validations), ok);
}

/// Records the traced run's request spans and the tracing overhead.
void AddTracedRun(const TimedRun& traced, double untraced_p50_ms, const Phases& ph,
                  Result* out) {
  for (const Round& round : traced) {
    for (const std::vector<Reply>* v : {&round.open, &round.closed}) {
      for (const Reply& r : *v) {
        out->spans.push_back(
            Span{out->spans.size() + 1, "request", "", r.sent_ns, r.done_ns});
      }
    }
  }
  const LoadSummary s = Summarize(traced, ph);
  out->metrics["trace.overhead_pct"] =
      100.0 * Ratio(s.p50_ms - untraced_p50_ms, untraced_p50_ms);
}

// --- layer replay ------------------------------------------------------------

/// Per-query timings of the layer replay.
struct Replay {
  std::vector<double> parse_us, classify_us, search_us, service_us;
  std::vector<std::string> engine;
  std::vector<double> rtt_us, ping_us, encode_us, decode_us, bytes;
  std::vector<double> shard_alone_us, shard_max_us, router_us, straggler;
};

double Us(int64_t a, int64_t b) { return static_cast<double>(b - a) * 1e-3; }

/// Replay spans carry trace ids above every request span's.
constexpr uint64_t kReplayTraceBase = uint64_t{1} << 32;

/// `r` as the search response a server sends for it (net/server.cc).
net::SearchResponse WireReply(const RoutedResult& r) {
  net::SearchResponse out;
  out.language_class = r.language_class;
  out.engine = r.engine;
  out.nodes.assign(r.result.nodes.begin(), r.result.nodes.end());
  out.scores = r.result.scores;
  out.counters = r.result.counters;
  return out;
}

/// Replays `sample` one query at a time through the inner boundaries,
/// innermost first: ParseQuery + ClassifyQuery (lang); Searcher::Search,
/// which parses and then calls SearchParsed (eval); SearchService::Search
/// with one worker (exec), whose reply is also put through the wire encode
/// and decode; and, when `port` is nonzero, FtsClient::Search and Ping
/// against that server (net). Running a query's boundaries back to back makes them sample
/// the same moment of a host whose speed drifts. eval runs with a service
/// worker's caches, one reused context in front of an L2 of the service's
/// size, so exec differs from it by the dispatch alone. The sample runs
/// once untimed first to warm every boundary.
void ReplayInner(const std::vector<Query>& sample,
                 std::shared_ptr<const IndexSnapshot> snapshot,
                 const SnapshotSource* source, SearchService::Options service_options,
                 uint16_t port, const char* net_parent, uint32_t top_k, Replay* rp,
                 Result* out) {
  const Searcher searcher(std::move(snapshot),
                          SearcherOptions{service_options.scoring, service_options.mode});
  SharedBlockCache::Options l2_options;
  l2_options.capacity_blocks = service_options.shared_cache_blocks;
  SharedBlockCache l2(l2_options);
  ExecOptions exec_options;
  exec_options.shared_cache = &l2;
  ExecContext ctx(exec_options);
  service_options.num_workers = 1;
  SearchService service(source, service_options);
  std::optional<net::FtsClient> client;
  if (port != 0) {
    net::FtsClient::Options copts;
    copts.port = port;
    client.emplace(copts);
  }
  for (int pass = 0; pass < 2; ++pass) {
    const bool timed = pass == 1;
    for (size_t i = 0; i < sample.size(); ++i) {
      const std::string& q = sample[i].text;
      const uint64_t id = kReplayTraceBase + i;
      int64_t t0 = NowNs();
      StatusOr<LangExprPtr> parsed = ParseQuery(q, SurfaceLanguage::kComp);
      int64_t t1 = NowNs();
      if (!parsed.ok()) Fail("parse: " + q);
      (void)ClassifyQuery(*parsed);
      int64_t t2 = NowNs();
      if (timed) {
        rp->parse_us.push_back(Us(t0, t1));
        rp->classify_us.push_back(Us(t1, t2));
        out->spans.push_back(Span{id, "lang", "eval", t0, t2});
      }

      ctx.set_top_k(top_k);
      t0 = NowNs();
      StatusOr<RoutedResult> evaluated = searcher.Search(q, ctx);
      t1 = NowNs();
      if (!evaluated.ok()) Fail("in-process search: " + q);
      if (timed) {
        rp->search_us.push_back(Us(t0, t1));
        rp->engine.push_back(evaluated->engine);
        out->spans.push_back(Span{id, "eval", "exec", t0, t1});
      }

      t0 = NowNs();
      StatusOr<RoutedResult> served = service.Search(q, top_k);
      t1 = NowNs();
      if (!served.ok()) Fail("service search: " + q);
      if (timed) {
        rp->service_us.push_back(Us(t0, t1));
        out->spans.push_back(Span{id, "exec", client ? "net" : "", t0, t1});
        const net::SearchResponse wire = WireReply(*served);
        const int64_t e0 = NowNs();
        const std::string frame = net::EncodeSearchResponse(wire);
        const int64_t e1 = NowNs();
        net::SearchResponse decoded;
        const Status s = net::DecodeSearchResponse(
            std::string_view(frame).substr(net::kFrameHeaderBytes), &decoded);
        const int64_t e2 = NowNs();
        if (!s.ok()) Fail("decode of an encoded reply failed");
        rp->encode_us.push_back(Us(e0, e1));
        rp->decode_us.push_back(Us(e1, e2));
        rp->bytes.push_back(static_cast<double>(frame.size()));
      }
      if (!client) continue;

      t0 = NowNs();
      StatusOr<net::SearchResponse> reply = client->Search(q, top_k);
      t1 = NowNs();
      if (!reply.ok() || !reply->status.ok()) Fail("client search: " + q);
      if (!client->Ping().ok()) Fail("ping failed");
      t2 = NowNs();
      if (!timed) continue;
      rp->rtt_us.push_back(Us(t0, t1));
      rp->ping_us.push_back(Us(t1, t2));
      out->spans.push_back(Span{id, "net", net_parent, t0, t1});
    }
  }
}

/// Replays `sample` one query at a time through the router's chain, over
/// raw connections: shard 0 asked alone, all shards asked in parallel (the
/// router's fan-out, sent from outside), then the router itself.
void ReplayRouter(const std::vector<Query>& sample, uint16_t router_port,
                  const std::vector<uint16_t>& shard_ports, uint32_t top_k,
                  Replay* rp, Result* out) {
  LoadGenerator shards(shard_ports, 1, top_k);
  LoadGenerator router({router_port}, 1, top_k);
  const auto rtt = [&](const Reply& r, const std::string& q) {
    if (!r.ok) Fail("router replay: request failed: " + q);
    return Us(r.sent_ns, r.done_ns);
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < sample.size(); ++i) {
      const std::string& q = sample[i].text;
      const double alone = rtt(shards.RoundTrip(0, q), q);
      std::vector<double> parallel;
      for (const Reply& r : shards.FanOut(q)) parallel.push_back(rtt(r, q));
      const Reply routed = router.RoundTrip(0, q);
      const double routed_us = rtt(routed, q);
      if (pass == 0) continue;
      const double slowest = *std::max_element(parallel.begin(), parallel.end());
      rp->shard_alone_us.push_back(alone);
      rp->shard_max_us.push_back(slowest);
      rp->router_us.push_back(routed_us);
      rp->straggler.push_back(Ratio(slowest, Median(parallel)));
      out->spans.push_back(
          Span{kReplayTraceBase + i, "router", "", routed.sent_ns, routed.done_ns});
    }
  }
}

/// Turns the replay into per-layer metrics and prints each boundary's
/// self time: its median minus the next inner boundary's median.
void AddReplayMetrics(const Replay& rp, Result* out) {
  auto& m = out->metrics;
  std::vector<double> lang_us;
  for (size_t i = 0; i < rp.parse_us.size(); ++i) {
    lang_us.push_back(rp.parse_us[i] + rp.classify_us[i]);
  }
  m["lang.parse_us_p50"] = Median(rp.parse_us);
  m["lang.classify_us_p50"] = Median(rp.classify_us);
  const double search = Median(rp.search_us);
  m["eval.search_us_p50"] = search;
  m["eval.search_us_p99"] = Percentile(rp.search_us, 0.99);
  for (const char* cls : {"BOOL", "PPRED", "NPRED", "COMP"}) {
    std::vector<double> of_class;
    for (size_t i = 0; i < rp.engine.size(); ++i) {
      if (rp.engine[i] == cls) of_class.push_back(rp.search_us[i]);
    }
    m[std::string("eval.search_us_p50.") + cls] = Median(of_class);
  }
  const double service = Median(rp.service_us);
  m["exec.service_us_p50"] = service;
  m["exec.dispatch_us_p50"] = service - search;
  const bool served = !rp.rtt_us.empty();
  const double rtt = Median(rp.rtt_us);
  m["net.ping_us_p50"] = Median(rp.ping_us);
  m["net.rtt_us_p50"] = rtt;
  m["net.self_us_p50"] = served ? rtt - service : 0;
  m["net.encode_us_p50"] = Median(rp.encode_us);
  m["net.decode_us_p50"] = Median(rp.decode_us);
  m["net.response_bytes_mean"] = Mean(rp.bytes);
  std::vector<double> router_self;
  for (size_t i = 0; i < rp.router_us.size(); ++i) {
    router_self.push_back(rp.router_us[i] - rp.shard_max_us[i]);
  }
  m["net.router_self_us_p50"] = Median(router_self);
  m["net.straggler_ratio_p50"] = Median(rp.straggler);

  const double lang = Median(lang_us);
  std::printf("  self time per boundary, us (median minus the next inner median):\n");
  std::printf("    lang    %9.1f  ParseQuery + ClassifyQuery\n", lang);
  std::printf("    eval    %9.1f  Searcher::Search\n", search - lang);
  std::printf("    exec    %9.1f  SearchService::Search, one worker\n", service - search);
  if (served) {
    std::printf("    net     %9.1f  FtsClient::Search to %s\n", rtt - service,
                rp.router_us.empty() ? "the server" : "shard 0");
  }
  std::printf("    total   %9.1f\n", served ? rtt : service);
  if (rp.router_us.empty()) return;
  const double alone = Median(rp.shard_alone_us);
  const double fan = Median(rp.shard_max_us);
  const double routed = Median(rp.router_us);
  std::printf("  router chain, us (raw sockets, one pass):\n");
  std::printf("    shard 0 %9.1f  asked alone\n", alone);
  std::printf("    fan-out %9.1f  slowest of the shards asked in parallel, over shard 0\n",
              fan - alone);
  std::printf("    router  %9.1f  fts_router over the slowest shard\n", routed - fan);
  std::printf("    total   %9.1f\n", routed);
}

// --- served workloads --------------------------------------------------------

/// The server processes of one set-up. Members stop in reverse order, so
/// the router goes before the shards it talks to.
struct Cluster {
  std::vector<fs::path> files;
  uint64_t file_bytes = 0;
  double build_s = 0;
  std::vector<std::unique_ptr<ChildProcess>> servers;
  std::vector<uint16_t> server_ports;
  std::unique_ptr<ChildProcess> router;
  /// The port clients use: the router's, or the only server's.
  uint16_t port = 0;

  double RssMiB() const {
    double total = router ? router->PeakRssMiB() : 0;
    for (const auto& s : servers) total += s->PeakRssMiB();
    return total;
  }
};

/// Builds, saves and serves the shards, starts the router, and waits for
/// the first answered request: everything setup_s covers.
std::unique_ptr<Cluster> StartCluster(const WorkloadSpec& spec,
                                      const std::vector<Corpus>& shards,
                                      const fs::path& dir, const Options& opt,
                                      const std::string& first_query) {
  auto c = std::make_unique<Cluster>();
  IndexBuildOptions build;
  build.pairs.frequent_terms = spec.pair_terms;
  build.pairs.max_distance = spec.pair_distance;
  for (size_t i = 0; i < shards.size(); ++i) {
    c->files.push_back(dir / ("shard" + std::to_string(i) + ".fts"));
  }
  // Shards build in parallel, as they would on separate hosts.
  std::vector<Status> saved(shards.size());
  std::vector<double> build_s(shards.size());
  const auto build_one = [&](size_t i) {
    const int64_t t0 = NowNs();
    const InvertedIndex index = IndexBuilder::Build(shards[i], build);
    build_s[i] = SecondsSince(t0);
    saved[i] = SaveIndexToFile(index, c->files[i].string());
  };
  std::vector<std::thread> builders;
  for (size_t i = 1; i < shards.size(); ++i) builders.emplace_back(build_one, i);
  build_one(0);
  for (std::thread& t : builders) t.join();
  for (const Status& s : saved) {
    if (!s.ok()) Fail("save index: " + s.ToString());
  }
  c->build_s = *std::max_element(build_s.begin(), build_s.end());
  for (const fs::path& f : c->files) c->file_bytes += fs::file_size(f);

  for (size_t i = 0; i < c->files.size(); ++i) {
    std::vector<std::string> argv = {
        (opt.bin_dir / "fts_server").string(), "--index", c->files[i].string(),
        "--port", "0", "--workers", std::to_string(spec.workers), "--scoring",
        ScoringKindToString(spec.scoring), "--name", "shard" + std::to_string(i)};
    if (spec.mmap) argv.push_back("--mmap");
    c->servers.push_back(std::make_unique<ChildProcess>(argv));
  }
  for (auto& s : c->servers) {
    c->server_ports.push_back(s->WaitForPort(std::chrono::seconds(60)));
  }
  c->port = c->server_ports[0];
  if (spec.shards > 1) {
    std::vector<std::string> argv = {(opt.bin_dir / "fts_router").string(), "--port",
                                     "0"};
    for (uint16_t p : c->server_ports) {
      argv.push_back("--shard");
      argv.push_back("127.0.0.1:" + std::to_string(p));
    }
    c->router = std::make_unique<ChildProcess>(argv);
    c->port = c->router->WaitForPort(std::chrono::seconds(60));
  }
  net::FtsClient::Options copts;
  copts.port = c->port;
  net::FtsClient client(copts);
  StatusOr<net::SearchResponse> first = client.Search(first_query, spec.top_k);
  if (!first.ok() || !first->status.ok()) Fail("first request failed: " + first_query);
  return c;
}

/// The value of `key` in a /metrics body.
double MetricsValue(const std::string& text, const std::string& key) {
  size_t at = 0;
  while ((at = text.find(key + " ", at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtod(text.c_str() + at + key.size() + 1, nullptr);
    }
    at += key.size();
  }
  Fail("no " + key + " in server metrics");
}

Result RunServed(const WorkloadSpec& spec, const Options& opt) {
  Result res;
  res.workload = spec.name;
  const Phases ph = PhasesFor(opt);
  const uint32_t nodes = opt.smoke ? 1500 : spec.nodes;
  const ScoringKind scoring = spec.scoring;

  // Inputs, not timed: the corpus, its text size, shard slices, queries.
  const Corpus corpus = GenerateCorpus(CorpusOptions(nodes, opt.seed));
  double text_bytes = 0;
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    text_bytes += static_cast<double>(RenderNode(corpus, n).size());
  }
  std::vector<Corpus> shards;
  for (uint32_t i = 0; i < spec.shards; ++i) {
    StatusOr<Corpus> slice =
        corpus.Slice(static_cast<NodeId>(uint64_t{nodes} * i / spec.shards),
                     static_cast<NodeId>(uint64_t{nodes} * (i + 1) / spec.shards));
    if (!slice.ok()) Fail("slice: " + slice.status().ToString());
    shards.push_back(std::move(slice).value());
  }
  Rng pool_rng = StreamRng(opt.seed, kPoolStream);
  const QueryMix mix = MakeMix(spec, &pool_rng);
  Rng warm_rng = StreamRng(opt.seed, kWarmupStream);
  const std::vector<Query> warm_q =
      mix.Draw(static_cast<size_t>(spec.rate * ph.warmup) + 1, &warm_rng);
  const RoundQueries rounds(mix, ph, spec.rate, opt.seed);

  TempDir dir(opt.out);
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    cluster.reset();
    // A set-up writes about a hundred MiB of index files. Flushed later,
    // the writeback would land inside the next set-up (which overwrites
    // the same files) or the timed phases.
    sync();
    const int64_t t0 = NowNs();
    cluster = StartCluster(spec, shards, dir.path(), opt, warm_q[0].text);
    setup_s.push_back(SecondsSince(t0));
  }
  sync();
  PrintSetups(spec.name, setup_s);

  // Correctness gate, before any timing. The reference reads one
  // unsharded index with sequential cursors and no pair routing.
  {
    std::shared_ptr<const IndexSnapshot> snapshot;
    if (spec.shards == 1) {
      StatusOr<std::shared_ptr<const IndexSnapshot>> loaded =
          LoadSnapshotFromFile(cluster->files[0].string());
      if (!loaded.ok()) Fail("load reference: " + loaded.status().ToString());
      snapshot = std::move(loaded).value();
    } else {
      auto index = std::make_shared<const InvertedIndex>(IndexBuilder::Build(corpus));
      StatusOr<std::shared_ptr<const IndexSnapshot>> created =
          IndexSnapshot::Create({index});
      if (!created.ok()) Fail("reference snapshot: " + created.status().ToString());
      snapshot = std::move(created).value();
    }
    const Searcher ref = ReferenceSearcher(snapshot, scoring);
    net::FtsClient::Options copts;
    copts.port = cluster->port;
    net::FtsClient client(copts);
    Rng gate_rng = StreamRng(opt.seed, kGateStream);
    for (const Query& q : mix.Stratified(kGateQueries, kGateMinPerShape, &gate_rng)) {
      const RoutedResult want = ReferenceSearch(ref, q.text, spec.top_k);
      StatusOr<net::SearchResponse> got = client.Search(q.text, spec.top_k);
      if (!got.ok() || !got->status.ok()) {
        Fail("correctness gate: workload " + spec.name + ": query " + q.text +
             ": request failed");
      }
      CheckReply(spec.name, q.text, got->nodes, got->scores, want);
    }
  }
  res.correct = true;

  // At most four connections are open at once: two for the open loop,
  // two for the closed loop.
  auto open_loop =
      std::make_unique<LoadGenerator>(std::vector<uint16_t>{cluster->port}, kOpenConnections,
                                   spec.top_k);
  (void)open_loop->OpenLoop(warm_q, spec.rate);
  const auto run_timed = [&] {
    TimedRun run(ph.rounds);
    for (int i = 0; i < ph.rounds; ++i) {
      Round& r = run[i];
      r.open = open_loop->OpenLoop(rounds.open[i], spec.rate);
      const std::vector<Query>& closed = rounds.closed[i];
      LoadGenerator closed_loop({cluster->port}, kClosedConnections, spec.top_k);
      uint32_t cursor = 0;
      r.closed_end_ns = NowNs() + static_cast<int64_t>(ph.closed * 1e9);
      r.closed = closed_loop.ClosedLoop(
          closed, [&] { return cursor++ % closed.size(); }, kClosedDepth, ph.closed);
    }
    return run;
  };
  const TimedRun untraced = run_timed();
  const LoadSummary sum = Summarize(untraced, ph);
  PrintLoad(spec.name, sum, ph, spec.rate);

  auto& m = res.metrics;
  m["setup_s"] = Median(setup_s);
  m["p50_ms"] = sum.p50_ms;
  m["p90_ms"] = sum.p90_ms;
  m["p99_ms"] = sum.p99_ms;
  m["qps"] = sum.qps;
  m["index_bytes_per_text_byte"] = static_cast<double>(cluster->file_bytes) / text_bytes;
  m["server_rss_mb"] = cluster->RssMiB();
  res.attempted = sum.attempted;
  res.failed = sum.failed;

  AddCounterMetrics(untraced, rounds, mix, spec.shards, &res);
  m["index.build_s"] = cluster->build_s;
  m["index.file_bytes"] = static_cast<double>(cluster->file_bytes);
  double l2_bytes = 0, peak_queue = 0;
  for (uint16_t port : cluster->server_ports) {
    net::FtsClient::Options copts;
    copts.port = port;
    net::FtsClient client(copts);
    StatusOr<net::MetricsResponse> text = client.Metrics();
    if (!text.ok()) Fail("metrics: " + text.status().ToString());
    l2_bytes += MetricsValue(text->text, "fts_l2_cache_resident_bytes");
    peak_queue = std::max(peak_queue, MetricsValue(text->text, "fts_peak_queue_depth"));
  }
  m["index.l2_resident_bytes"] = l2_bytes;
  m["exec.peak_queue_depth"] = peak_queue;
  m["exec.segments_per_query_mean"] = 1;
  for (const char* name : {"exec.add_us_p50", "exec.add_p99_ms", "exec.seal_ms_p50",
                           "exec.delete_ms_p50", "exec.compactions", "exec.spill_bytes"}) {
    m[name] = 0;
  }

  if (!opt.trace) return res;
  AddTracedRun(run_timed(), sum.p50_ms, ph, &res);
  open_loop.reset();

  Rng replay_rng = StreamRng(opt.seed, kReplayStream);
  const std::vector<Query> sample =
      mix.Draw(opt.smoke ? kReplayQueries / 10 : kReplayQueries, &replay_rng);
  Replay rp;
  LoadOptions load;
  load.mode = spec.mmap ? LoadOptions::Mode::kMmap : LoadOptions::Mode::kEager;
  const int64_t t0 = NowNs();
  StatusOr<std::shared_ptr<const IndexSnapshot>> snapshot =
      LoadSnapshotFromFile(cluster->files[0].string(), load);
  m["index.load_s"] = SecondsSince(t0);
  if (!snapshot.ok()) Fail("load: " + snapshot.status().ToString());
  SearchService::Options service;
  service.scoring = scoring;
  const StaticSnapshotSource source(*snapshot);
  ReplayInner(sample, *snapshot, &source, service, cluster->server_ports[0],
              cluster->router ? "router" : "", spec.top_k, &rp, &res);
  if (cluster->router) {
    ReplayRouter(sample, cluster->port, cluster->server_ports, spec.top_k, &rp, &res);
  }
  AddReplayMetrics(rp, &res);
  return res;
}

// --- ingest_live -------------------------------------------------------------

/// What the writer thread measured.
struct WriterStats {
  std::vector<double> add_latency_ms;  ///< from each Add's scheduled time
  std::vector<double> add_us;          ///< the Add call alone
  std::vector<double> seal_ms;         ///< Adds that sealed the buffer
  std::vector<double> delete_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t compactions = 0;
  uint64_t adds_done = 0;
  double offered_per_s = 0;
  double achieved_per_s = 0;
};

/// A live document id of the current generation, or nullopt. Ids below
/// live_nodes() survive any compaction the merger may publish meanwhile,
/// because only this thread adds or deletes.
std::optional<uint64_t> PickLiveDoc(const IngestService& ingest, Rng* rng) {
  const std::shared_ptr<const IndexSnapshot> snap = ingest.snapshot();
  if (snap->live_nodes() == 0) return std::nullopt;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const uint64_t id = rng->Uniform(snap->live_nodes());
    for (const SegmentView& seg : snap->segments()) {
      if (id >= seg.base && id < seg.base + seg.index->num_nodes()) {
        const NodeId local = static_cast<NodeId>(id - seg.base);
        if (seg.tombstones == nullptr || !seg.tombstones->Contains(local)) return id;
        break;
      }
    }
  }
  return std::nullopt;
}

/// Open-loop writer: Add texts[next_text...] at add_rate and Delete a
/// random live document at delete_rate, from `start_ns` for `seconds`.
WriterStats RunWriter(IngestService* ingest, const std::vector<std::string>& texts,
                      size_t* next_text, size_t max_buffered, const WorkloadSpec& spec,
                      int64_t start_ns, double seconds, Rng rng) {
  WriterStats w;
  const size_t adds = static_cast<size_t>(spec.add_rate * seconds);
  const size_t deletes = static_cast<size_t>(spec.delete_rate * seconds);
  const auto add_due = [&](size_t i) {
    return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / spec.add_rate);
  };
  const auto delete_due = [&](size_t j) {
    return start_ns +
           static_cast<int64_t>((static_cast<double>(j) + 0.5) * 1e9 / spec.delete_rate);
  };
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  size_t in_time = 0;
  size_t segments = ingest->snapshot()->num_segments();
  for (size_t i = 0, j = 0; i < adds || j < deletes;) {
    const bool is_add = j >= deletes || (i < adds && add_due(i) <= delete_due(j));
    const int64_t due = is_add ? add_due(i) : delete_due(j);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    ++w.attempted;
    const int64_t t0 = NowNs();
    bool ok = true;
    if (is_add) {
      ok = ingest->Add(texts.at((*next_text)++)).ok();
      const int64_t t1 = NowNs();
      ++i;
      ++w.adds_done;
      w.add_us.push_back(Us(t0, t1));
      w.add_latency_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
      if (w.adds_done % max_buffered == 0) w.seal_ms.push_back(Us(t0, t1) * 1e-3);
    } else {
      const std::optional<uint64_t> id = PickLiveDoc(*ingest, &rng);
      ok = id.has_value() && ingest->Delete(*id).ok();
      w.delete_ms.push_back(Us(t0, NowNs()) * 1e-3);
      ++j;
    }
    if (!ok) ++w.failed;
    if (NowNs() <= end_ns) ++in_time;
    const size_t now_segments = ingest->snapshot()->num_segments();
    if (now_segments < segments) ++w.compactions;
    segments = now_segments;
  }
  w.offered_per_s = static_cast<double>(adds + deletes) / seconds;
  w.achieved_per_s = static_cast<double>(in_time) / seconds;
  return w;
}

/// The reply of one in-process request.
Reply ServiceReply(uint32_t query, int64_t sched_ns, int64_t sent_ns,
                   StatusOr<RoutedResult> r) {
  Reply out;
  out.query = query;
  out.sched_ns = sched_ns;
  out.sent_ns = sent_ns;
  out.done_ns = NowNs();
  out.ok = r.ok() && out.done_ns - sent_ns <= kTimeoutNs;
  if (r.ok()) {
    out.results = static_cast<uint32_t>(r->result.nodes.size());
    out.counters = r->result.counters;
  }
  return out;
}

/// Open loop through SearchService::Submit. Replies are stamped when the
/// loop observes their future ready: exactly when one request is in
/// flight, within 50 us when several are.
std::vector<Reply> ServiceOpenLoop(SearchService* service, const IngestService& ingest,
                                   const std::vector<Query>& queries, double rate,
                                   std::vector<double>* segments_seen) {
  struct Pending {
    std::future<StatusOr<RoutedResult>> future;
    uint32_t query;
    int64_t sched_ns, sent_ns;
  };
  std::vector<Reply> out;
  std::deque<Pending> pending;
  const int64_t start = NowNs() + 1'000'000;
  const auto due = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  const auto tp = [](int64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
  };
  size_t next = 0;
  while (next < queries.size() || !pending.empty()) {
    while (next < queries.size() && due(next) <= NowNs()) {
      if (segments_seen) {
        segments_seen->push_back(static_cast<double>(ingest.snapshot()->num_segments()));
      }
      const int64_t sent = NowNs();
      pending.push_back(
          Pending{service->Submit(queries[next].text), static_cast<uint32_t>(next),
                  due(next), sent});
      ++next;
    }
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        out.push_back(ServiceReply(it->query, it->sched_ns, it->sent_ns, it->future.get()));
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    int64_t until = next < queries.size() ? due(next) : NowNs() + 10'000'000;
    if (pending.size() > 1) until = std::min(until, NowNs() + 50'000);
    if (pending.empty()) {
      std::this_thread::sleep_until(tp(until));
    } else {
      pending.front().future.wait_until(tp(until));
    }
  }
  return out;
}

/// Closed loop through SearchService: `depth` requests in flight.
std::vector<Reply> ServiceClosedLoop(SearchService* service,
                                     const std::vector<Query>& queries,
                                     int depth, double seconds) {
  struct Pending {
    std::future<StatusOr<RoutedResult>> future;
    uint32_t query;
    int64_t sent_ns;
  };
  std::vector<Reply> out;
  std::deque<Pending> pending;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint32_t cursor = 0;
  const auto submit = [&] {
    const uint32_t q = cursor++ % static_cast<uint32_t>(queries.size());
    const int64_t sent = NowNs();
    pending.push_back(Pending{service->Submit(queries[q].text), q, sent});
  };
  for (int i = 0; i < depth; ++i) submit();
  while (!pending.empty()) {
    Pending p = std::move(pending.front());
    pending.pop_front();
    out.push_back(ServiceReply(p.query, p.sent_ns, p.sent_ns, p.future.get()));
    if (NowNs() < end) submit();
  }
  return out;
}

Result RunIngest(const WorkloadSpec& spec, const Options& opt) {
  Result res;
  res.workload = spec.name;
  const Phases ph = PhasesFor(opt);
  const uint32_t base = opt.smoke ? 1500 : spec.base_docs;
  const double writer_seconds = ph.rounds * (ph.open + ph.closed);
  const size_t live_adds =
      static_cast<size_t>(spec.add_rate * writer_seconds) * (opt.trace ? 2 : 1);

  // Inputs, not timed: the documents as text, and the queries.
  const Corpus corpus =
      GenerateCorpus(CorpusOptions(base + static_cast<uint32_t>(live_adds), opt.seed));
  std::vector<std::string> texts;
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) texts.push_back(RenderNode(corpus, n));
  Rng pool_rng = StreamRng(opt.seed, kPoolStream);
  const QueryMix mix = MakeMix(spec, &pool_rng);
  Rng warm_rng = StreamRng(opt.seed, kWarmupStream);
  const std::vector<Query> warm_q =
      mix.Draw(static_cast<size_t>(spec.rate * ph.warmup) + 1, &warm_rng);
  const RoundQueries rounds(mix, ph, spec.rate, opt.seed);

  TempDir dir(opt.out);
  IngestService::Options ingest_options;
  ingest_options.max_buffered_docs = 512;
  ingest_options.merge_factor = 4;
  SearchService::Options service_options;
  service_options.num_workers = spec.workers;
  std::vector<double> setup_s;
  double build_s = 0;
  std::unique_ptr<IngestService> ingest;
  std::unique_ptr<SearchService> service;
  fs::path spill;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    service.reset();
    ingest.reset();
    spill = dir.path() / ("spill" + std::to_string(k));
    fs::create_directories(spill);
    ingest_options.spill_dir = spill.string();
    sync();  // as for the served workloads: no writeback of the last set-up
    const int64_t t0 = NowNs();
    ingest = std::make_unique<IngestService>(ingest_options);
    for (uint32_t i = 0; i < base; ++i) {
      if (!ingest->Add(texts[i]).ok()) Fail("base ingest failed");
    }
    const Status compacted = ingest->Compact();
    if (!compacted.ok()) Fail("compact: " + compacted.ToString());
    build_s = SecondsSince(t0);
    service = std::make_unique<SearchService>(ingest.get(), service_options);
    if (!service->Search(warm_q[0].text).ok()) Fail("first request failed");
    setup_s.push_back(SecondsSince(t0));
  }
  sync();
  PrintSetups(spec.name, setup_s);

  (void)ServiceOpenLoop(service.get(), *ingest, warm_q, spec.rate, nullptr);
  size_t next_text = base;
  double text_bytes = 0;
  for (uint32_t i = 0; i < base; ++i) text_bytes += static_cast<double>(texts[i].size());
  std::vector<double> segments_seen;
  Rng writer_rng = StreamRng(opt.seed, kWriterStream);
  const auto run_timed = [&](WriterStats* writer) {
    TimedRun run(ph.rounds);
    const int64_t start = NowNs() + 1'000'000;
    std::thread writer_thread([&] {
      *writer = RunWriter(ingest.get(), texts, &next_text, ingest_options.max_buffered_docs,
                          spec, start, writer_seconds, writer_rng);
    });
    for (int i = 0; i < ph.rounds; ++i) {
      Round& r = run[i];
      r.open =
          ServiceOpenLoop(service.get(), *ingest, rounds.open[i], spec.rate, &segments_seen);
      r.closed_end_ns = NowNs() + static_cast<int64_t>(ph.closed * 1e9);
      r.closed = ServiceClosedLoop(service.get(), rounds.closed[i],
                                   kClosedConnections * kClosedDepth, ph.closed);
    }
    writer_thread.join();
    return run;
  };
  // The peak resident size covers the timed phases only. The repeated
  // set-ups before them free whole indexes into the allocator, and how much
  // of that it still holds varies by hundreds of MiB from run to run.
  malloc_trim(0);
  ResetSelfPeakRss();
  WriterStats writer;
  const size_t text_before = next_text;
  const TimedRun untraced = run_timed(&writer);
  for (size_t i = text_before; i < next_text; ++i) {
    text_bytes += static_cast<double>(texts[i].size());
  }
  const double rss = SelfPeakRssMiB();
  const LoadSummary sum = Summarize(untraced, ph);
  PrintLoad(spec.name, sum, ph, spec.rate);
  std::printf("%s: writer offered %.1f ops/s, achieved %.1f ops/s, %llu compactions\n",
              spec.name.c_str(), writer.offered_per_s, writer.achieved_per_s,
              static_cast<unsigned long long>(writer.compactions));

  // Correctness gate on the final generation, once the writer has stopped.
  // A background compaction may still publish one more generation; a
  // query that straddles it is asked again, so that the reply is compared
  // with the generation that served it.
  Rng gate_rng = StreamRng(opt.seed, kGateStream);
  for (const Query& q : mix.Stratified(kGateQueries, kGateMinPerShape, &gate_rng)) {
    for (int attempt = 0;; ++attempt) {
      const std::shared_ptr<const IndexSnapshot> snap = ingest->snapshot();
      StatusOr<RoutedResult> got = service->Search(q.text);
      if (ingest->snapshot() != snap) {
        if (attempt == 100) Fail("correctness gate: the generation never settled");
        continue;
      }
      if (!got.ok()) Fail("correctness gate: workload " + spec.name + ": query " + q.text);
      const RoutedResult want =
          ReferenceSearch(ReferenceSearcher(snap, ScoringKind::kNone), q.text, 0);
      const std::vector<uint64_t> nodes(got->result.nodes.begin(), got->result.nodes.end());
      CheckReply(spec.name, q.text, nodes, got->result.scores, want);
      break;
    }
  }
  res.correct = true;

  auto& m = res.metrics;
  const double spill_bytes = static_cast<double>(DirBytes(spill));
  m["setup_s"] = Median(setup_s);
  m["p50_ms"] = sum.p50_ms;
  m["p90_ms"] = sum.p90_ms;
  m["p99_ms"] = sum.p99_ms;
  m["qps"] = sum.qps;
  m["index_bytes_per_text_byte"] = spill_bytes / text_bytes;
  m["server_rss_mb"] = rss;
  res.attempted = sum.attempted + writer.attempted;
  res.failed = sum.failed + writer.failed;

  AddCounterMetrics(untraced, rounds, mix, 1, &res);
  m["index.build_s"] = build_s;
  m["index.file_bytes"] = spill_bytes;
  m["index.l2_resident_bytes"] =
      static_cast<double>(service->shared_cache()->stats().resident_bytes);
  m["exec.peak_queue_depth"] = static_cast<double>(service->metrics().peak_queue_depth);
  m["exec.add_us_p50"] = Median(writer.add_us);
  m["exec.add_p99_ms"] = Percentile(writer.add_latency_ms, 0.99);
  m["exec.seal_ms_p50"] = Median(writer.seal_ms);
  m["exec.delete_ms_p50"] = Median(writer.delete_ms);
  m["exec.compactions"] = static_cast<double>(writer.compactions);
  m["exec.segments_per_query_mean"] = Mean(segments_seen);
  m["exec.spill_bytes"] = spill_bytes;
  for (const char* name : {"net.ping_us_p50", "net.rtt_us_p50", "net.self_us_p50",
                           "net.router_self_us_p50", "net.straggler_ratio_p50"}) {
    m[name] = 0;
  }

  if (!opt.trace) return res;
  WriterStats traced_writer;
  AddTracedRun(run_timed(&traced_writer), sum.p50_ms, ph, &res);
  Rng replay_rng = StreamRng(opt.seed, kReplayStream);
  const std::vector<Query> sample =
      mix.Draw(opt.smoke ? kReplayQueries / 10 : kReplayQueries, &replay_rng);
  // What a restart would read: every spill file, loaded the default way.
  const int64_t t0 = NowNs();
  for (const fs::directory_entry& e : fs::directory_iterator(spill)) {
    if (!LoadSnapshotFromFile(e.path().string()).ok()) Fail("reload " + e.path().string());
  }
  m["index.load_s"] = SecondsSince(t0);
  Replay rp;
  ReplayInner(sample, ingest->snapshot(), ingest.get(), service_options, 0, "", 0, &rp,
              &res);
  AddReplayMetrics(rp, &res);
  return res;
}

// --- output ------------------------------------------------------------------

template <size_t N>
void PrintTable(const char* title, const MetricDef (&defs)[N], const Result& r) {
  std::printf("  %s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) continue;
    std::printf("    %-34s %16.6g %s%s\n", d.name, it->second, d.unit,
                d.in_result ? "" : "  (not in the result line)");
  }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `defs`, the in-result
/// ones alone when `in_result_only`. Every metric of `defs` must have been
/// measured and be finite.
template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const Result& r, bool in_result_only) {
  std::string json = "{";
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() || !std::isfinite(it->second)) {
      Fail(r.workload + ": metric " + d.name + " missing or not finite");
    }
    if (in_result_only && !d.in_result) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    json += std::string(json.size() > 1 ? ", " : "") + "\"" + d.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + d.unit + "\"}";
  }
  return json + "}";
}

/// The result line: the in-result metrics of `defs`.
template <size_t N>
std::string ResultJson(const MetricDef (&defs)[N], const Result& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(defs, r, true) + "}";
}

/// The summary line: every metric measured, under the workload's name.
std::string SummaryJson(const Result& r, uint64_t seed, bool trace) {
  return "{\"workload\": \"" + r.workload + "\", \"seed\": " + std::to_string(seed) +
         ", \"end_to_end\": " + MetricsJson(kEndToEnd, r, false) +
         (trace ? ", \"per_layer\": " + MetricsJson(kPerLayer, r, false) : std::string()) +
         "}";
}

void WriteSpans(const Result& r, const fs::path& out) {
  fs::create_directories(out);
  const fs::path path = out / ("trace_" + r.workload + ".json");
  std::ofstream f(path);
  f << "{\"workload\": \"" << r.workload << "\", \"spans\": [";
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    f << (i ? ",\n" : "\n") << "{\"trace_id\": " << s.trace_id << ", \"span\": \""
      << s.span << "\", \"parent\": \"" << s.parent << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}";
  }
  f << "\n]}\n";
  if (!f) Fail("cannot write " + path.string());
  std::printf("  %zu spans written to %s\n", r.spans.size(), path.string().c_str());
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: e2e_bench [--workload NAME|all] [--seed N] [--seconds S]\n"
      "                 [--trace [0|1]] [--out DIR] [--smoke]\n"
      "  workloads: paper_mix ranked_sharded uniform_mmap ingest_live\n"
      "  --seconds S  timed seconds per run (default 10), in 5 rounds of an\n"
      "               open loop (2/3) and a closed loop (1/3), after a\n"
      "               0.15 S warm-up\n"
      "  --trace      also replay queries layer by layer; print per-layer\n"
      "               metrics and write DIR/trace_<workload>.json\n"
      "  --smoke      1,500-node corpora, one set-up, 1 s phases, traced;\n"
      "               fails unless every metric is printed and finite\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
      if (!(opt.seconds > 0)) Usage();
    } else if (arg == "--trace") {
      opt.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = std::strcmp(argv[++i], "1") == 0;
      }
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.trace = true;
    } else {
      Usage();
    }
  }
  if (opt.workload != "all" && FindWorkload(opt.workload) == nullptr) Usage();
  return opt;
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  opt.bin_dir = fs::read_symlink("/proc/self/exe").parent_path();
  // The open loops sleep until each request's send time; the default 50 us
  // timer slack would add to every measured latency. Threads started
  // later inherit the setting.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  std::printf("fts_decode_arm %s, %u hardware threads\n", DecodeArmName(ActiveDecodeArm()),
              std::thread::hardware_concurrency());
  const int64_t start = NowNs();
  for (const WorkloadSpec& spec : Workloads()) {
    if (opt.workload != "all" && opt.workload != spec.name) continue;
    const Result r = spec.in_process ? RunIngest(spec, opt) : RunServed(spec, opt);
    std::printf("== %s (seed %llu)\n", r.workload.c_str(),
                static_cast<unsigned long long>(opt.seed));
    PrintTable("end to end", kEndToEnd, r);
    if (opt.trace) {
      PrintTable("per layer", kPerLayer, r);
      WriteSpans(r, opt.out);
    }
    const std::string summary = SummaryJson(r, opt.seed, opt.trace);
    const std::string result = opt.trace ? ResultJson(kPerLayer, r) : ResultJson(kEndToEnd, r);
    std::printf("%s\n%s\n", summary.c_str(), result.c_str());
    std::fflush(stdout);
  }
  if (opt.smoke) {
    std::fprintf(stderr, "e2e_bench: smoke run passed in %.1f s\n", SecondsSince(start));
  }
  return 0;
}

}  // namespace
}  // namespace fts::e2e

int main(int argc, char** argv) {
  try {
    return fts::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}

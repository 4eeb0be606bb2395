// Live-ingestion benchmarks for the segment architecture: sustained
// ingest throughput through IngestService (Add + auto-seal + generation
// publish, background merger compacting underneath), one compaction
// (MergeSegments) on its own, and query latency —
// mean and tail — while a writer churns generations at full speed. The
// p99 counter is the acceptance number for the snapshot handoff design:
// queries acquire a generation with one shared_ptr copy, so ingest,
// sealing, and merging must not put a lock or a stall on the query path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"
#include "exec/ingest_service.h"
#include "index/segment.h"
#include "index/segment_merger.h"
#include "index/tombstone_set.h"

#include <benchmark/benchmark.h>

namespace {

using fts::ExecContext;
using fts::IngestService;
using fts::Rng;
using fts::Searcher;
using fts::ZipfSampler;

/// Pre-generated documents over a 64-token Zipf vocabulary ("w0" the most
/// frequent), 8-24 tokens each — small enough to pre-build, shaped enough
/// that hot query tokens have dense, multi-block posting lists.
const std::vector<std::string>& SharedDocs() {
  static const std::vector<std::string>* docs = [] {
    Rng rng(271828);
    ZipfSampler zipf(64, 1.0);
    auto* out = new std::vector<std::string>();
    out->reserve(4096);
    for (size_t i = 0; i < 4096; ++i) {
      std::string doc;
      const uint64_t len = rng.UniformRange(8, 24);
      for (uint64_t t = 0; t < len; ++t) {
        if (!doc.empty()) doc += ' ';
        doc += "w" + std::to_string(zipf.Sample(&rng));
      }
      out->push_back(std::move(doc));
    }
    return out;
  }();
  return *docs;
}

/// Documents ingested per second, including seals (every state.range(0)
/// adds), generation publishes, and the background merger's compactions.
/// The service is recycled once the shared document set is exhausted so
/// the live corpus — and with it the O(corpus) publish/merge cost — stays
/// stationary across the run instead of growing without bound.
void BM_IngestThroughput(benchmark::State& state) {
  const std::vector<std::string>& docs = SharedDocs();
  IngestService::Options options;
  options.max_buffered_docs = static_cast<size_t>(state.range(0));
  options.merge_factor = 8;
  auto service = std::make_unique<IngestService>(options);
  size_t next = 0;
  for (auto _ : state) {
    if (next == docs.size()) {
      state.PauseTiming();
      service = std::make_unique<IngestService>(options);
      next = 0;
      state.ResumeTiming();
    }
    auto id = service->Add(docs[next++]);
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
  }
  if (!service->merger_status().ok()) {
    state.SkipWithError(service->merger_status().ToString().c_str());
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IngestThroughput)->Arg(64)->Arg(512)->ArgName("seal");

/// One background compaction: MergeSegments over state.range(0) sealed
/// segments of 128 documents each, with every fourth document tombstoned.
/// The merge copies live entries' position bytes verbatim, so its cost is
/// entry headers plus bytes copied, not a rebuild of the survivors.
void BM_MergeSegments(benchmark::State& state) {
  const std::vector<std::string>& docs = SharedDocs();
  constexpr size_t kDocsPerSegment = 128;
  std::vector<std::shared_ptr<const fts::InvertedIndex>> segments;
  std::vector<fts::TombstoneSet> tombstones;
  std::vector<fts::SegmentView> views;
  fts::NodeId base = 0;
  for (int64_t s = 0; s < state.range(0); ++s) {
    fts::SegmentBuffer buffer;
    for (size_t i = 0; i < kDocsPerSegment; ++i) {
      buffer.Add(docs[s * kDocsPerSegment + i]);
    }
    segments.push_back(buffer.Seal());
    tombstones.emplace_back(kDocsPerSegment);
    for (fts::NodeId n = 0; n < kDocsPerSegment; n += 4) {
      tombstones.back().MarkDeleted(n);
    }
  }
  for (size_t s = 0; s < segments.size(); ++s) {
    views.push_back({segments[s].get(), base, &tombstones[s]});
    base += static_cast<fts::NodeId>(segments[s]->num_nodes());
  }
  for (auto _ : state) {
    auto merged = fts::MergeSegments(views);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(merged->num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * kDocsPerSegment);
}
BENCHMARK(BM_MergeSegments)->Arg(4)->ArgName("segments");

/// Query latency under a full-speed writer: one thread Adds (with deletes
/// keeping the live corpus stationary and the merger compacting) while the
/// benchmark thread evaluates a hot conjunction against the generation it
/// acquires per query. Reports mean (the benchmark time), p50 and p99 —
/// the tail is the number that catches a query ever blocking on a seal,
/// a publish, or a compaction.
void BM_QueryUnderIngest(benchmark::State& state) {
  const std::vector<std::string>& docs = SharedDocs();
  IngestService::Options options;
  options.max_buffered_docs = 64;
  options.merge_factor = 8;
  IngestService service(options);
  for (size_t i = 0; i < 2048; ++i) {
    auto id = service.Add(docs[i]);
    if (!id.ok()) {
      state.SkipWithError(id.status().ToString().c_str());
      return;
    }
  }
  if (!service.Refresh().ok()) {
    state.SkipWithError("refresh failed");
    return;
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(314159);
    size_t next = 2048;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)service.Add(docs[next]);
      next = (next + 1) % docs.size();
      auto snapshot = service.snapshot();
      if (snapshot->live_nodes() > 3000 && snapshot->total_nodes() > 0) {
        // Ids are generation-relative; a concurrent compaction may
        // invalidate this one, which Delete rejects harmlessly.
        (void)service.Delete(rng.Uniform(snapshot->total_nodes()));
      }
    }
  });

  const std::string query = "'w0' AND 'w1'";
  ExecContext ctx;
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 16);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    Searcher searcher(service.snapshot(),
                      {fts::ScoringKind::kTfIdf, fts::CursorMode::kAdaptive});
    auto r = searcher.Search(query, ctx);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      stop.store(true);
      writer.join();
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->result.nodes.data());
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  stop.store(true);
  writer.join();

  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
    state.counters["p99_us"] = latencies_us[latencies_us.size() * 99 / 100];
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryUnderIngest)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }

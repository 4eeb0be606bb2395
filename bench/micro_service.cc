// Concurrent-serving benchmarks: SearchService throughput scaling across
// worker counts (BM_ConcurrentQps — the acceptance bench for the
// worker-pool layer), per-query service overhead vs a direct Searcher call,
// and the cross-query SharedBlockCache's effect on a repeated-query mix.
//
// Throughput benches measure wall time (UseRealTime): the work happens on
// the service's worker threads, so the benchmark thread's CPU time would
// only show submission cost. QPS scaling is inherently bounded by the
// machine's core count — on the 4-core CI runners 8 workers saturate
// around 4x; read the qps counter relative to the threads:1 series.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/searcher.h"
#include "exec/search_service.h"
#include "index/index_io.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>

namespace {

using fts::InvertedIndex;
using fts::LoadOptions;
using fts::QueryGenOptions;
using fts::QueryPolarity;
using fts::SearchService;
using fts::Searcher;
using fts::benchutil::SharedIndex;

/// The serving mix: fig5-shaped BOOL conjunctions and fig6-shaped PPRED
/// predicate queries over the planted topic tokens, interleaved the way a
/// traffic mix would be. (NPRED's ordering enumeration is benchmarked by
/// the ablation binaries; at multi-ms per query it would drown the
/// scaling signal here.)
std::vector<std::string> ServingMix() {
  std::vector<std::string> mix;
  for (uint32_t first = 0; first < 4; ++first) {
    QueryGenOptions bool_query;
    bool_query.num_tokens = 3;
    bool_query.num_predicates = 0;
    bool_query.polarity = QueryPolarity::kNone;
    bool_query.first_topic = first;
    mix.push_back(GenerateQuery(bool_query));

    QueryGenOptions ppred_query;
    ppred_query.num_tokens = 3;
    ppred_query.num_predicates = 2;
    ppred_query.polarity = QueryPolarity::kPositive;
    ppred_query.first_topic = first;
    mix.push_back(GenerateQuery(ppred_query));
  }
  return mix;
}

/// One batch of the mix per iteration through a worker pool of
/// state.range(0) threads; qps = queries / wall second. The paper corpus
/// (6000 nodes) is shared across all series.
void BM_ConcurrentQps(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  SearchService::Options options;
  options.num_workers = static_cast<size_t>(state.range(0));
  options.mode = fts::CursorMode::kAdaptive;
  SearchService service(&index, options);

  // One batch = 4 copies of the 8-query mix, enough to keep every worker
  // busy within a batch.
  std::vector<std::string> batch;
  const std::vector<std::string> mix = ServingMix();
  for (int copy = 0; copy < 4; ++copy) {
    batch.insert(batch.end(), mix.begin(), mix.end());
  }

  uint64_t queries = 0;
  for (auto _ : state) {
    auto results = service.SearchBatch(batch);
    for (const auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    queries += results.size();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
  const auto m = service.metrics();
  state.counters["l2_hit_fraction"] =
      m.totals.shared_cache_hits + m.totals.shared_cache_misses == 0
          ? 0.0
          : static_cast<double>(m.totals.shared_cache_hits) /
                static_cast<double>(m.totals.shared_cache_hits +
                                    m.totals.shared_cache_misses);
}
BENCHMARK(BM_ConcurrentQps)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

/// The same scaling series over an mmap-served index: cold traffic decodes
/// straight from the page cache, with first-touch validation and bulk
/// decode amortized across queries by the service's L2.
void BM_ConcurrentQpsMmap(benchmark::State& state) {
  static std::string* path = [] {
    auto* p = new std::string(
        (std::filesystem::temp_directory_path() / "fts_micro_service.idx")
            .string());
    fts::SaveIndexToFile(SharedIndex(6000, 6), *p);
    return p;
  }();
  LoadOptions load;
  load.mode = LoadOptions::Mode::kMmap;
  InvertedIndex index;
  if (!fts::LoadIndexFromFile(*path, &index, load).ok()) {
    state.SkipWithError("mmap load failed");
    return;
  }
  SearchService::Options options;
  options.num_workers = static_cast<size_t>(state.range(0));
  SearchService service(&index, options);
  const std::vector<std::string> batch = ServingMix();

  uint64_t queries = 0;
  for (auto _ : state) {
    auto results = service.SearchBatch(batch);
    for (const auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    queries += results.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrentQpsMmap)
    ->Arg(1)->Arg(8)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

/// Per-query service overhead: the same query through the pool (submit,
/// enqueue, worker wakeup, future) vs a direct Searcher call on the
/// benchmark thread. The delta is the serving machinery's tax.
void BM_ServiceSearchLatency(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  SearchService::Options options;
  options.num_workers = 1;
  SearchService service(&index, options);
  const std::string query = "'topic0' AND 'topic1' AND 'topic2'";
  for (auto _ : state) {
    auto r = service.Search(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->result.nodes.data());
  }
}
BENCHMARK(BM_ServiceSearchLatency)->UseRealTime()->MeasureProcessCPUTime();

void BM_RouterDirectLatency(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const Searcher searcher(fts::IndexSnapshot::ForIndex(&index));
  fts::ExecContext ctx;
  const std::string query = "'topic0' AND 'topic1' AND 'topic2'";
  for (auto _ : state) {
    auto r = searcher.Search(query, ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->result.nodes.data());
  }
}
BENCHMARK(BM_RouterDirectLatency);

/// Cross-query amortization in one number: the same query stream through
/// a Searcher with and without the shared L2 (single thread, so the delta
/// is pure decode savings, no parallelism).
void BM_SharedCacheRepeatedQueries(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const bool with_l2 = state.range(0) != 0;
  fts::SharedBlockCache cache;
  fts::ExecOptions options;
  if (with_l2) options.shared_cache = &cache;
  const Searcher searcher(fts::IndexSnapshot::ForIndex(&index));
  const std::vector<std::string> mix = ServingMix();
  for (auto _ : state) {
    for (const std::string& q : mix) {
      fts::ExecContext ctx(options);
      auto r = searcher.Search(q, ctx);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->result.nodes.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(mix.size()));
}
BENCHMARK(BM_SharedCacheRepeatedQueries)
    ->Arg(0)->Arg(1)
    ->ArgName("l2");

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }

// Substrate microbenchmarks: tokenizer, index construction, sequential
// block-cursor scans, resident-memory accounting, serialization round
// trips, eager-vs-mmap load paths, and the adaptive-vs-fixed cursor-mode
// comparison.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "bench_common.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "lang/parser.h"
#include "text/tokenizer.h"
#include "workload/query_gen.h"

namespace {

using fts::BlockListCursor;
using fts::BlockPostingList;
using fts::Corpus;
using fts::GenerateCorpus;
using fts::IndexBuilder;
using fts::InvertedIndex;
using fts::QueryGenOptions;
using fts::QueryPolarity;
using fts::Tokenizer;
using fts::benchutil::BenchCorpusOptions;
using fts::benchutil::MakeEngine;
using fts::benchutil::RunQuery;
using fts::benchutil::SharedIndex;

void BM_Tokenize(benchmark::State& state) {
  // A ~2.5KB paragraph, repeated to the requested size.
  std::string text;
  while (text.size() < static_cast<size_t>(state.range(0))) {
    text += "Usability of a software measures how well the software supports "
            "achieving an efficient software task completion. ";
  }
  Tokenizer tokenizer;
  for (auto _ : state) {
    auto tokens = tokenizer.Tokenize(text);
    benchmark::DoNotOptimize(tokens.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Tokenize)->Arg(4 << 10)->Arg(64 << 10)->Arg(512 << 10);

void BM_IndexBuild(benchmark::State& state) {
  Corpus corpus =
      GenerateCorpus(BenchCorpusOptions(static_cast<uint32_t>(state.range(0)), 6));
  for (auto _ : state) {
    InvertedIndex index = IndexBuilder::Build(corpus);
    benchmark::DoNotOptimize(index.num_nodes());
  }
  state.counters["nodes"] = static_cast<double>(corpus.num_nodes());
}
BENCHMARK(BM_IndexBuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// A pair-indexed build in the shape of one ranked-serving shard: 3,000
// paper-shaped nodes with pair lists for the 16 most frequent terms up to
// NEAR/2. The pair lists dominate this build (docs/pair_index.md).
void BM_IndexBuildPairs(benchmark::State& state) {
  Corpus corpus = GenerateCorpus(BenchCorpusOptions(3000, 6));
  fts::IndexBuildOptions options;
  options.pairs.frequent_terms = 16;
  options.pairs.max_distance = 2;
  size_t pair_keys = 0;
  for (auto _ : state) {
    InvertedIndex index = IndexBuilder::Build(corpus, options);
    pair_keys = index.pair_index() == nullptr ? 0 : index.pair_index()->num_keys();
    benchmark::DoNotOptimize(index.num_nodes());
  }
  state.counters["nodes"] = static_cast<double>(corpus.num_nodes());
  state.counters["pair_keys"] = static_cast<double>(pair_keys);
}
BENCHMARK(BM_IndexBuildPairs)->Unit(benchmark::kMillisecond);

void BM_ListCursorScan(benchmark::State& state) {
  // Sequential scan of the hot list through the resident block cursor —
  // the access path every engine's kSequential mode now takes.
  const InvertedIndex& index = SharedIndex(6000, static_cast<uint32_t>(state.range(0)));
  const BlockPostingList* list = index.block_list_for_text("topic0");
  uint64_t positions = 0;
  for (auto _ : state) {
    BlockListCursor cursor(list);
    while (cursor.NextEntry() != fts::kInvalidNode) {
      auto span = cursor.GetPositions();
      positions += span.size();
      benchmark::DoNotOptimize(span.data());
    }
  }
  state.counters["positions_per_scan"] =
      static_cast<double>(positions) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ListCursorScan)->Arg(6)->Arg(12);

void BM_AnyListScan(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  for (auto _ : state) {
    BlockListCursor cursor(&index.block_any_list());
    uint64_t count = 0;
    while (cursor.NextEntry() != fts::kInvalidNode) ++count;
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_AnyListScan);

void BM_IndexResidentBytes(benchmark::State& state) {
  // Resident footprint of the single block representation, against what the
  // pre-refactor dual-resident model (blocks + a raw decoded mirror) would
  // hold for the same corpus. The raw mirror is materialized transiently
  // here purely to price it.
  const InvertedIndex& index = SharedIndex(6000, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MemoryUsage());
  }
  size_t raw_mirror = 0;
  for (fts::TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const fts::PostingList raw = index.block_list(t)->Materialize();
    raw_mirror += raw.num_entries() * sizeof(fts::PostingEntry) +
                  raw.total_positions() * sizeof(fts::PositionInfo) +
                  sizeof(fts::PostingList);
  }
  {
    const fts::PostingList raw = index.block_any_list().Materialize();
    raw_mirror += raw.num_entries() * sizeof(fts::PostingEntry) +
                  raw.total_positions() * sizeof(fts::PositionInfo) +
                  sizeof(fts::PostingList);
  }
  const double resident = static_cast<double>(index.MemoryUsage());
  state.counters["resident_index_bytes"] = resident;
  state.counters["raw_mirror_bytes"] = static_cast<double>(raw_mirror);
  state.counters["dual_resident_bytes"] = resident + static_cast<double>(raw_mirror);
  state.counters["dual_over_block"] =
      resident == 0 ? 0.0 : (resident + static_cast<double>(raw_mirror)) / resident;
}
BENCHMARK(BM_IndexResidentBytes);

// ---------------------------------------------------------------------------
// Adaptive planner vs the two fixed cursor modes, over fig5-8-shaped
// workloads (paper defaults: 3 topic tokens, 2 predicates, 6000 nodes) plus
// the selective-AND shape where seeking shines. Args: mode (0 sequential,
// 1 seek, 2 adaptive). The acceptance bar is adaptive within 5% of the
// better fixed mode on every series.
// ---------------------------------------------------------------------------

const char* ModeSuffix(int mode) {
  return mode == 0 ? "" : (mode == 1 ? "_SEEK" : "_ADAPT");
}

void BM_AdaptiveVsFixed(benchmark::State& state, const char* base,
                        QueryPolarity polarity, uint32_t occurrences) {
  const InvertedIndex& index = SharedIndex(6000, occurrences);
  QueryGenOptions opts;
  opts.num_tokens = 3;
  opts.num_predicates = polarity == QueryPolarity::kNone ? 0 : 2;
  opts.polarity = polarity;
  const int mode = static_cast<int>(state.range(0));
  auto engine = MakeEngine(std::string(base) + ModeSuffix(mode), &index);
  RunQuery(state, *engine, GenerateQuery(opts));
}
BENCHMARK_CAPTURE(BM_AdaptiveVsFixed, BOOL_fig5, "BOOL", QueryPolarity::kNone, 6)
    ->DenseRange(0, 2)->ArgName("mode");
BENCHMARK_CAPTURE(BM_AdaptiveVsFixed, PPRED_fig6, "PPRED", QueryPolarity::kPositive, 6)
    ->DenseRange(0, 2)->ArgName("mode");
BENCHMARK_CAPTURE(BM_AdaptiveVsFixed, NPRED_fig6, "NPRED", QueryPolarity::kNegative, 6)
    ->DenseRange(0, 2)->ArgName("mode")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AdaptiveVsFixed, PPRED_fig8, "PPRED", QueryPolarity::kPositive, 12)
    ->DenseRange(0, 2)->ArgName("mode");

// Selective conjunction (the fig7-style sparse-driver shape): a Zipf-tail
// token AND a dense topic token, where seeking is the right call.
void BM_AdaptiveVsFixedSelective(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  auto engine = MakeEngine(std::string("BOOL") +
                               ModeSuffix(static_cast<int>(state.range(0))),
                           &index);
  RunQuery(state, *engine, "w6000 and topic0");
}
BENCHMARK(BM_AdaptiveVsFixedSelective)->DenseRange(0, 2)->ArgName("mode");

// ---------------------------------------------------------------------------
// Load-path benchmarks: eager heap load (read + full validation, O(file))
// vs mmap lazy load (header/directory only, O(header) — block payloads are
// first-touch validated when queries decode them). Args: context nodes;
// eager load time scales with the corpus, mmap load time should stay
// nearly flat across the sizes while resident bytes drop to the
// header/directory structures.
// ---------------------------------------------------------------------------

/// Shared per-shape v3 index file in the system temp dir, written once per
/// process (the file is intentionally left for the OS temp cleaner: later
/// iterations of other series reuse it through the static map).
const std::pair<std::string, size_t>& SharedIndexFile(uint32_t cnodes) {
  static std::map<uint32_t, std::pair<std::string, size_t>>* files =
      new std::map<uint32_t, std::pair<std::string, size_t>>();
  auto it = files->find(cnodes);
  if (it == files->end()) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("fts_micro_index_load_" + std::to_string(cnodes) + ".idx"))
            .string();
    fts::SaveIndexToFile(SharedIndex(cnodes, 6), path);
    it = files->emplace(cnodes, std::make_pair(path, std::filesystem::file_size(path)))
             .first;
  }
  return it->second;
}

void LoadBench(benchmark::State& state, fts::LoadOptions::Mode mode) {
  const auto& [path, bytes] = SharedIndexFile(static_cast<uint32_t>(state.range(0)));
  fts::LoadOptions options;
  options.mode = mode;
  InvertedIndex last;
  for (auto _ : state) {
    InvertedIndex loaded;
    if (!fts::LoadIndexFromFile(path, &loaded, options).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded.num_nodes());
    last = std::move(loaded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.counters["file_bytes"] = static_cast<double>(bytes);
  state.counters["resident_bytes"] = static_cast<double>(last.MemoryUsage());
  state.counters["mapped_bytes"] = static_cast<double>(last.MappedBytes());
}

void BM_IndexLoadEager(benchmark::State& state) {
  LoadBench(state, fts::LoadOptions::Mode::kEager);
}
BENCHMARK(BM_IndexLoadEager)->Arg(1500)->Arg(6000)->Unit(benchmark::kMillisecond);

void BM_IndexLoadMmap(benchmark::State& state) {
  LoadBench(state, fts::LoadOptions::Mode::kMmap);
}
BENCHMARK(BM_IndexLoadMmap)->Arg(1500)->Arg(6000)->Unit(benchmark::kMillisecond);

// Cold start to first answer: load the index file and answer one selective
// AND. Eager mode pays a full-file read + validation before the first
// query can run; mmap mode pays the O(header) load plus first-touch
// validation of only the blocks the query actually lands in; mmap+prefault
// additionally walks every page at load time (MADV_WILLNEED + touch), the
// warm-up a service opts into so first queries never fault. With the page
// cache already warm (as here, right after writing the file) the prefault
// delta is the soft-fault cost alone; on a truly cold cache it is the
// file's IO moved out of query latency. Args: mode (0 eager, 1 mmap,
// 2 mmap+prefault).
void BM_ColdFirstQuery(benchmark::State& state) {
  const auto& [path, bytes] = SharedIndexFile(6000);
  fts::LoadOptions options;
  options.mode = state.range(0) == 0 ? fts::LoadOptions::Mode::kEager
                                     : fts::LoadOptions::Mode::kMmap;
  options.prefault = state.range(0) == 2;
  auto parsed = fts::ParseQuery("w6000 and topic0", fts::SurfaceLanguage::kComp);
  if (!parsed.ok()) {
    state.SkipWithError("bad query");
    return;
  }
  uint64_t first_touch = 0;
  for (auto _ : state) {
    InvertedIndex loaded;
    if (!fts::LoadIndexFromFile(path, &loaded, options).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    auto engine = MakeEngine("BOOL_ADAPT", &loaded);
    auto result = engine->Evaluate(*parsed);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    first_touch += result->counters.first_touch_validations;
    benchmark::DoNotOptimize(result->nodes.data());
  }
  state.counters["file_bytes"] = static_cast<double>(bytes);
  state.counters["first_touch_blocks"] =
      static_cast<double>(first_touch) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ColdFirstQuery)->DenseRange(0, 2)->ArgName("mode")
    ->Unit(benchmark::kMillisecond);

void BM_IndexSerialize(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(2000, 6);
  std::string blob;
  for (auto _ : state) {
    fts::SaveIndexToString(index, &blob);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_IndexSerialize)->Unit(benchmark::kMillisecond);

void BM_IndexDeserialize(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(2000, 6);
  std::string blob;
  fts::SaveIndexToString(index, &blob);
  for (auto _ : state) {
    InvertedIndex loaded;
    if (!fts::LoadIndexFromString(blob, &loaded).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded.num_nodes());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_IndexDeserialize)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }

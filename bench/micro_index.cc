// Substrate microbenchmarks: tokenizer, index construction, the norm pass, sequential
// block-cursor scans, resident-memory accounting, serialization round
// trips, eager-vs-mmap load paths, and the adaptive-vs-fixed cursor-mode
// comparison.

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
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
using fts::benchutil::DecodeRaw;
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
// 200 nodes keeps one build under scripts/bench_check.py's 20 ms cap on both
// decode arms, so index builds are gated; the larger sizes are recorded only.
// 24,000 nodes (~4.2M occurrences) is the e2e uniform_mmap index's shape,
// large enough that the build splits across workers: real time is the
// build's latency, and the CPU time counts every worker of the process.
BENCHMARK(BM_IndexBuild)
    ->Arg(200)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(24000)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Pair-indexed builds: `nodes` paper-shaped nodes with pair lists for the
// 16 most frequent terms up to NEAR/2. The pair lists dominate these
// builds (docs/pair_index.md).
void PairIndexedBuild(benchmark::State& state, uint32_t nodes) {
  Corpus corpus = GenerateCorpus(BenchCorpusOptions(nodes, 6));
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

// In the shape of one ranked-serving shard: 3,000 nodes.
void BM_IndexBuildPairs(benchmark::State& state) { PairIndexedBuild(state, 3000); }
BENCHMARK(BM_IndexBuildPairs)->Unit(benchmark::kMillisecond);

// Small enough that one build stays under scripts/bench_check.py's 20 ms
// cap on both decode arms, so the pair builder is gated.
void BM_IndexBuildPairsSmall(benchmark::State& state) {
  PairIndexedBuild(state, static_cast<uint32_t>(state.range(0)));
}
BENCHMARK(BM_IndexBuildPairsSmall)->Arg(100)->Unit(benchmark::kMillisecond);

// The TF-IDF norm pass (ComputeNodeNorms) that a snapshot runs under
// global statistics, and a build or merge under its own, over the 6,000-
// node index. Its 1,047,020 occurrences are just short of two workers'
// shares, so the pass runs on the calling thread and prices the sum
// itself. One pass stays under scripts/bench_check.py's 20 ms cap on both
// decode arms, so it is gated.
void BM_NodeNorms(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(static_cast<uint32_t>(state.range(0)), 6);
  fts::SegmentScoringStats stats = index.scoring_stats();
  std::vector<double> norms;
  for (auto _ : state) {
    if (!fts::ComputeNodeNorms(index, nullptr, &norms, &stats).ok()) {
      state.SkipWithError("norm pass failed");
      return;
    }
    benchmark::DoNotOptimize(norms.data());
    benchmark::ClobberMemory();
  }
  state.counters["nodes"] = static_cast<double>(index.num_nodes());
}
BENCHMARK(BM_NodeNorms)
    ->Arg(6000)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

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
  size_t raw_mirror = DecodeRaw(&index.block_any_list()).bytes();
  for (fts::TokenId t = 0; t < index.vocabulary_size(); ++t) {
    raw_mirror += DecodeRaw(index.block_list(t)).bytes();
  }
  // The v8 layout's split: list payload bytes (entry headers and offsets)
  // per stored position, over the token lists and IL_ANY, and the run
  // table that holds every node's sentences and paragraphs once.
  double payload_bytes = 0, positions = 0;
  for (fts::TokenId t = 0; t <= index.vocabulary_size(); ++t) {
    const fts::BlockPostingList& list =
        t < index.vocabulary_size() ? *index.block_list(t) : index.block_any_list();
    payload_bytes += static_cast<double>(list.data().size());
    positions += static_cast<double>(list.total_positions());
  }
  state.counters["payload_bytes_per_position"] = payload_bytes / positions;
  state.counters["structure_bytes"] =
      static_cast<double>(index.run_table().bytes().size());
  const double resident = static_cast<double>(index.MemoryUsage());
  state.counters["resident_index_bytes"] = resident;
  state.counters["raw_mirror_bytes"] = static_cast<double>(raw_mirror);
  state.counters["dual_resident_bytes"] = resident + static_cast<double>(raw_mirror);
  state.counters["dual_over_block"] =
      resident == 0 ? 0.0 : (resident + static_cast<double>(raw_mirror)) / resident;
}
BENCHMARK(BM_IndexResidentBytes);

// The same accounting for one ranked-serving shard: 3,000 paper-shaped
// nodes with pair lists for the 16 most frequent terms up to NEAR/2,
// saved and loaded eagerly as fts_server loads it. Pair lists are most of
// its lists and almost all of them one block long, so the resident cost
// beyond the file's bytes is per-list bookkeeping.
void BM_IndexResidentBytesPairs(benchmark::State& state) {
  fts::IndexBuildOptions options;
  options.pairs.frequent_terms = 16;
  options.pairs.max_distance = 2;
  std::string file;
  fts::SaveIndexToString(
      IndexBuilder::Build(GenerateCorpus(BenchCorpusOptions(3000, 6)), options),
      &file);
  InvertedIndex index;
  if (!fts::LoadIndexFromString(file, &index).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MemoryUsage());
  }
  const double resident = static_cast<double>(index.MemoryUsage());
  const double lists = static_cast<double>(index.num_lists());
  state.counters["resident_index_bytes"] = resident;
  state.counters["file_bytes"] = static_cast<double>(file.size());
  state.counters["lists"] = lists;
  state.counters["resident_bytes_per_list"] =
      (resident - static_cast<double>(file.size())) / lists;
}
BENCHMARK(BM_IndexResidentBytesPairs)->Name("BM_IndexResidentBytes/pairs");

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

/// Shared per-shape index file in the system temp dir, written once per
/// process (later iterations of other series reuse it) and removed when
/// the process exits.
const std::pair<std::string, size_t>& SharedIndexFile(uint32_t cnodes) {
  struct Files {
    std::map<uint32_t, std::pair<std::string, size_t>> by_shape;
    ~Files() {
      for (const auto& [shape, file] : by_shape) {
        std::error_code ignored;
        std::filesystem::remove(file.first, ignored);
      }
    }
  };
  static Files files;
  auto it = files.by_shape.find(cnodes);
  if (it == files.by_shape.end()) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("fts_micro_index_load_" + std::to_string(cnodes) + ".idx"))
            .string();
    fts::SaveIndexToFile(SharedIndex(cnodes, 6), path);
    const size_t bytes = std::filesystem::file_size(path);
    it = files.by_shape.emplace(cnodes, std::make_pair(path, bytes)).first;
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
// validation of only the blocks the query actually lands in. The page
// cache is warm here (the file was just written). Args: mode (0 eager,
// 1 mmap).
void BM_ColdFirstQuery(benchmark::State& state) {
  const auto& [path, bytes] = SharedIndexFile(6000);
  fts::LoadOptions options;
  options.mode = state.range(0) == 0 ? fts::LoadOptions::Mode::kEager
                                     : fts::LoadOptions::Mode::kMmap;
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
BENCHMARK(BM_ColdFirstQuery)->DenseRange(0, 1)->ArgName("mode")
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

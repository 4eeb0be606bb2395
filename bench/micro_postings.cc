// Raw vs block-compressed postings: serialized bytes, sequential decode
// throughput, and seek latency. The counters published with each series
// document the machine-independent story: block seeks probe O(log #blocks)
// skip headers and decode a single block, while raw sequential access walks
// the whole prefix.

#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "index/block_posting_list.h"
#include "index/decoded_block_cache.h"
#include "index/index_io.h"

namespace {

using fts::BlockListCursor;
using fts::BlockPostingList;
using fts::DecodedBlockCache;
using fts::EvalCounters;
using fts::InvertedIndex;
using fts::ListCursor;
using fts::NodeId;
using fts::PostingList;
using fts::Rng;
using fts::benchutil::SharedIndex;

// Raw decoded twin of the hot list, materialized per call: the raw form is
// no longer resident in the index, so the raw-vs-block series price it as
// an explicit oracle copy.
PostingList TopicList(const InvertedIndex& index) {
  const BlockPostingList* list = index.block_list_for_text("topic0");
  return list ? list->Materialize() : PostingList();
}

const BlockPostingList& TopicBlockList(const InvertedIndex& index) {
  const BlockPostingList* list = index.block_list_for_text("topic0");
  static const BlockPostingList empty;
  return list ? *list : empty;
}

// Serialized footprint: the whole index saved in the on-disk format, plus
// one hot list's raw in-memory size vs its block-compressed twin.
void BM_SerializedBytes(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, static_cast<uint32_t>(state.range(0)));
  const PostingList& raw = TopicList(index);
  const BlockPostingList& block = TopicBlockList(index);
  std::string blob;
  for (auto _ : state) {
    fts::SaveIndexToString(index, &blob);
    benchmark::DoNotOptimize(blob.data());
  }
  state.counters["list_raw_bytes"] = static_cast<double>(
      raw.num_entries() * sizeof(fts::PostingEntry) +
      raw.total_positions() * sizeof(fts::PositionInfo));
  state.counters["list_block_bytes"] = static_cast<double>(block.byte_size());
  state.counters["index_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_SerializedBytes)->Arg(6)->Unit(benchmark::kMillisecond);

// Full sequential decode of the hot list, raw cursor.
void BM_DecodeRawSequential(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, static_cast<uint32_t>(state.range(0)));
  const PostingList& raw = TopicList(index);
  uint64_t entries = 0;
  for (auto _ : state) {
    ListCursor cursor(&raw);
    while (cursor.NextEntry() != fts::kInvalidNode) {
      auto span = cursor.GetPositions();
      benchmark::DoNotOptimize(span.data());
      ++entries;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries));
}
BENCHMARK(BM_DecodeRawSequential)->Arg(6)->Arg(12);

// Full sequential decode of the hot list, block cursor (varint decoding).
void BM_DecodeBlockSequential(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, static_cast<uint32_t>(state.range(0)));
  const BlockPostingList& block = TopicBlockList(index);
  uint64_t entries = 0;
  for (auto _ : state) {
    BlockListCursor cursor(&block);
    while (cursor.NextEntry() != fts::kInvalidNode) {
      auto span = cursor.GetPositions();
      benchmark::DoNotOptimize(span.data());
      ++entries;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries));
}
BENCHMARK(BM_DecodeBlockSequential)->Arg(6)->Arg(12);

// One seek to a random node, fresh cursor each time: raw binary search.
void BM_SeekRaw(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const PostingList& raw = TopicList(index);
  Rng rng(7);
  const NodeId max_node = static_cast<NodeId>(index.num_nodes());
  for (auto _ : state) {
    ListCursor cursor(&raw);
    benchmark::DoNotOptimize(cursor.SeekEntry(rng.Uniform(max_node)));
  }
}
BENCHMARK(BM_SeekRaw);

// One seek to a random node, fresh cursor each time: skip table + one block
// decode. The published counters show the sub-linear decode volume.
void BM_SeekBlock(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const BlockPostingList& block = TopicBlockList(index);
  Rng rng(7);
  const NodeId max_node = static_cast<NodeId>(index.num_nodes());
  EvalCounters counters;
  uint64_t seeks = 0;
  for (auto _ : state) {
    BlockListCursor cursor(&block, &counters);
    benchmark::DoNotOptimize(cursor.SeekEntry(rng.Uniform(max_node)));
    ++seeks;
  }
  state.counters["entries_in_list"] = static_cast<double>(block.num_entries());
  state.counters["entries_decoded_per_seek"] =
      seeks == 0 ? 0.0
                 : static_cast<double>(counters.entries_decoded) /
                       static_cast<double>(seeks);
  state.counters["skip_checks_per_seek"] =
      seeks == 0 ? 0.0
                 : static_cast<double>(counters.skip_checks) /
                       static_cast<double>(seeks);
}
BENCHMARK(BM_SeekBlock);

// Bulk header decode throughput: a full sequential walk of the hot list's
// entry headers (node ids + counts) through the cursor's one-tight-loop
// block decode, never touching position bytes. This is the node-level
// access pattern of BOOL merges and zig-zag alignment.
void BM_BulkDecode(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, static_cast<uint32_t>(state.range(0)));
  const BlockPostingList& block = TopicBlockList(index);
  EvalCounters counters;
  uint64_t entries = 0;
  for (auto _ : state) {
    BlockListCursor cursor(&block, &counters);
    while (cursor.NextEntry() != fts::kInvalidNode) {
      benchmark::DoNotOptimize(cursor.current_node());
      ++entries;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries));
  state.counters["blocks_bulk_decoded"] =
      static_cast<double>(counters.blocks_bulk_decoded);
}
BENCHMARK(BM_BulkDecode)->Arg(6)->Arg(12);

// Decoded-block cache: the NPRED access pattern — the same list scanned
// once per ordering thread. Each iteration scans the hot list `rescans`
// times; with a shared DecodedBlockCache (cache=1) every scan after the
// first serves its blocks from cache and decodes nothing.
void BM_DecodedBlockCache(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const BlockPostingList& block = TopicBlockList(index);
  const bool use_cache = state.range(0) != 0;
  const int rescans = static_cast<int>(state.range(1));
  EvalCounters counters;
  for (auto _ : state) {
    DecodedBlockCache cache;
    for (int scan = 0; scan < rescans; ++scan) {
      BlockListCursor cursor(&block, &counters, use_cache ? &cache : nullptr);
      uint64_t sum = 0;
      while (cursor.NextEntry() != fts::kInvalidNode) sum += cursor.current_node();
      benchmark::DoNotOptimize(sum);
    }
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["cache_hits_per_iter"] =
      static_cast<double>(counters.cache_hits) / iters;
  state.counters["blocks_decoded_per_iter"] =
      static_cast<double>(counters.blocks_decoded) / iters;
}
BENCHMARK(BM_DecodedBlockCache)
    ->ArgsProduct({{0, 1}, {2, 6}})
    ->ArgNames({"cache", "rescans"});

// End-to-end effect on a selective conjunctive query: a rare Zipf-tail
// token AND a dense topic token. The sequential merge scans both lists end
// to end; the zig-zag seek path hops the dense list between the rare
// token's nodes, decoding only landing blocks.
void BM_SelectiveAnd(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  // mode: 0 = forced sequential, 1 = forced seek, 2 = adaptive planner.
  const char* kinds[] = {"BOOL", "BOOL_SEEK", "BOOL_ADAPT"};
  const std::string rare = "w" + std::to_string(state.range(1));
  auto engine =
      fts::benchutil::MakeEngine(kinds[state.range(0)], &index);
  fts::benchutil::RunQuery(state, *engine, rare + " and topic1");
}
BENCHMARK(BM_SelectiveAnd)
    ->ArgsProduct({{0, 1, 2}, {2000, 12000}})
    ->ArgNames({"mode", "rare_token"});

// AND of two dense topic tokens — the dense-clustered shape where both
// sides' blocks are bitset-encoded. In seek mode the zig-zag
// short-circuits to word-level bitset intersection (the bitset_ands
// counter proves it); sequential mode and varint-only builds
// (FTS_DISABLE_BITSET_BLOCKS=1) walk the same query entry-at-a-time, which
// is the comparison that prices the hybrid encoding.
void BM_DenseAnd(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const char* kinds[] = {"BOOL", "BOOL_SEEK"};
  auto engine = fts::benchutil::MakeEngine(kinds[state.range(0)], &index);
  fts::benchutil::RunQuery(state, *engine, "topic0 and topic2");
}
BENCHMARK(BM_DenseAnd)->ArgsProduct({{0, 1}})->ArgNames({"mode"});

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }

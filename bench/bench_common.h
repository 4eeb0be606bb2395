// Shared benchmark plumbing: cached synthetic corpora/indexes (paper-shaped
// defaults: 6000 context nodes, Zipf background vocabulary, planted topic
// tokens), engine construction by name, and a query-runner that reports the
// machine-independent cost counters alongside wall time.

#ifndef FTS_BENCH_BENCH_COMMON_H_
#define FTS_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/npred_engine.h"
#include "index/block_posting_list.h"
#include "index/inverted_index.h"
#include "workload/corpus_gen.h"
#include "workload/query_gen.h"

namespace fts::benchutil {

/// Paper-shaped corpus options: `cnodes` context nodes (default 6000 as in
/// Section 6.2) whose topic tokens appear in half the documents with
/// `occurrences` positions per containing document (the pos_per_entry
/// knob). Documents are 50-300 tokens over a 20k Zipf vocabulary.
CorpusGenOptions BenchCorpusOptions(uint32_t cnodes, uint32_t occurrences);

/// Lazily built, cached index for the given shape (benchmarks in one binary
/// share corpora across series).
const InvertedIndex& SharedIndex(uint32_t cnodes, uint32_t occurrences);

/// One inverted list decoded into plain arrays (BlockPostingList::
/// DecodeBlock output): the raw random-access form the raw-vs-block series
/// price. An index never holds one.
struct RawPostings {
  std::vector<PostingEntry> entries;  // pos_begin indexes `positions`
  std::vector<PositionInfo> positions;

  /// Heap and object bytes this form would keep resident.
  size_t bytes() const {
    return sizeof(RawPostings) + entries.size() * sizeof(PostingEntry) +
           positions.size() * sizeof(PositionInfo);
  }
};

/// Decodes every block of `list` (empty when `list` is null); aborts on a
/// block that fails to decode.
RawPostings DecodeRaw(const BlockPostingList* list);

/// Engine factory: kind is "BOOL", "PPRED", "NPRED", "NPRED_TOTAL" (all
/// toks_Q! orderings) or "COMP". A "_SEEK" suffix (e.g. "BOOL_SEEK")
/// selects the skip-seeking cursors over the block-compressed lists and an
/// "_ADAPT" suffix the per-query adaptive planner; plain names keep the
/// paper-faithful sequential access pattern.
std::unique_ptr<Engine> MakeEngine(const std::string& kind, const InvertedIndex* index,
                                   ScoringKind scoring = ScoringKind::kNone);

/// Drop-in replacement for BENCHMARK_MAIN(): in addition to the console
/// report, writes machine-readable results to BENCH_<program>.json in the
/// working directory (google-benchmark's JSON schema) unless the caller
/// already passed --benchmark_out. Future PRs diff these files to track the
/// perf trajectory.
int BenchMain(int argc, char** argv);

/// Runs `query` on `engine` for each benchmark iteration and publishes the
/// evaluation counters (entries, positions, tuples, predicate evals,
/// orderings, matches) as benchmark counters.
void RunQuery(benchmark::State& state, const Engine& engine, const std::string& query);

/// Prints a figure banner: which paper figure this binary regenerates and
/// the qualitative shape the paper reports.
void PrintFigureHeader(const char* figure, const char* expectation);

}  // namespace fts::benchutil

#endif  // FTS_BENCH_BENCH_COMMON_H_

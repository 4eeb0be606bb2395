// Ranked-retrieval benchmarks: block-max top-k early termination vs full
// evaluation over the paper-shaped corpus (BM_TopKVsFull — the acceptance
// bench for the ranked serving path). k=0 is the full-evaluation control:
// every posting of every query block is decoded and scored. Ranked series
// publish blocks_skipped_fraction — the share of candidate blocks the
// evaluator hopped on score bounds alone — which is the machine-independent
// half of the speedup (wall time is the other).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/searcher.h"
#include "exec/exec_context.h"

namespace {

using fts::CursorMode;
using fts::ExecContext;
using fts::IndexSnapshot;
using fts::InvertedIndex;
using fts::ScoringKind;
using fts::Searcher;
using fts::benchutil::SharedIndex;

/// Scored serving mix over the planted topic tokens: long single lists
/// (the classic top-k win), unions (bound = combined bound, the harder
/// case), and one selective conjunction.
const std::vector<std::string>& ScoredMix() {
  static const std::vector<std::string> mix = {
      "'topic0'",
      "'topic1'",
      "'topic0' OR 'topic1'",
      "'topic2' OR 'topic3'",
      "'topic0' AND 'topic1'",
  };
  return mix;
}

/// One pass of the scored mix per iteration; state.range(0) is the
/// requested k (0 = unranked full evaluation), state.range(1) selects the
/// score model (0 = TF-IDF, 1 = probabilistic).
void BM_TopKVsFull(benchmark::State& state) {
  const InvertedIndex& index = SharedIndex(6000, 6);
  const size_t k = static_cast<size_t>(state.range(0));
  const ScoringKind scoring =
      state.range(1) == 0 ? ScoringKind::kTfIdf : ScoringKind::kProbabilistic;
  const Searcher searcher(IndexSnapshot::ForIndex(&index),
                          {scoring, CursorMode::kAdaptive});
  ExecContext ctx;
  ctx.set_top_k(k);
  for (auto _ : state) {
    for (const std::string& q : ScoredMix()) {
      auto r = searcher.Search(q, ctx);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->result.nodes.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ScoredMix().size()));
  // Decode-avoidance in one number: of the candidate blocks the queries
  // touched, what fraction was hopped on upper bounds alone? 0 for the
  // k=0 control by construction (full evaluation never score-skips).
  const fts::EvalCounters& c = ctx.counters();
  const double candidates =
      static_cast<double>(c.blocks_decoded + c.blocks_skipped_by_score);
  state.counters["blocks_skipped_fraction"] =
      candidates == 0.0
          ? 0.0
          : static_cast<double>(c.blocks_skipped_by_score) / candidates;
}
BENCHMARK(BM_TopKVsFull)
    ->ArgNames({"k", "prob"})
    ->Args({0, 0})
    ->Args({10, 0})
    ->Args({100, 0})
    ->Args({0, 1})
    ->Args({10, 1})
    ->Args({100, 1});

}  // namespace

int main(int argc, char** argv) { return fts::benchutil::BenchMain(argc, argv); }

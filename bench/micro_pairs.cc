// Pair-index fast path vs the position pipeline on frequent-term phrase
// and NEAR/k operators — the pipeline's classic worst case (two huge
// driver lists, almost every decoded position discarded by the distance
// predicate). The pair-routed arm answers the same operators from the
// auxiliary (frequent, other) lists, whose length is the number of nodes
// where the terms actually co-occur; the differential suite pins both
// arms bit-identical, so the only thing that may differ here is cost.
// The counters tell the machine-independent story: the pipeline arm
// scans both full token lists and their positions, the pair arm decodes
// pair_entries co-occurrence records.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/ppred_engine.h"
#include "lang/parser.h"
#include "index/index_builder.h"
#include "workload/corpus_gen.h"

namespace {

using fts::CursorMode;
using fts::IndexBuildOptions;
using fts::IndexBuilder;
using fts::InvertedIndex;
using fts::PairRouting;
using fts::PpredEngine;
using fts::ScoringKind;

const char kPhrase[] =
    "SOME p1 SOME p2 (p1 HAS 'topic0' AND p2 HAS 'topic1' AND "
    "odistance(p1, p2, 0))";

const char kNear[] =
    "SOME p1 SOME p2 (p1 HAS 'topic0' AND p2 HAS 'topic1' AND "
    "distance(p1, p2, 2))";

// The bench corpus doubles the paper's 6000 context nodes and stretches
// documents to 400-600 tokens. The planted topic tokens (df ~6000 each,
// comfortably inside the 128-term frequent head next to the Zipf
// background hitters) occur 4 times per planted document at uniform
// random slots: the pipeline arm must decode both full entry lists and
// every planted position, while the pair lists hold only the rare true
// co-occurrences within the +-(max_distance+1) window — the sparse-join
// regime the auxiliary index targets.
const InvertedIndex& PairedIndex() {
  static const InvertedIndex* index = [] {
    fts::CorpusGenOptions opts = fts::benchutil::BenchCorpusOptions(12000, 4);
    opts.min_doc_len = 400;
    opts.max_doc_len = 600;
    fts::Corpus corpus = fts::GenerateCorpus(opts);
    IndexBuildOptions build;
    build.pairs.frequent_terms = 128;
    build.pairs.max_distance = 2;
    auto* built = new InvertedIndex(IndexBuilder::Build(corpus, build));
    // One untimed pass over each arm's working set: the short smoke runs
    // in CI take so few iterations that first-touch page faults over the
    // freshly built lists would otherwise dominate their averages.
    for (const PairRouting routing : {PairRouting::kOff, PairRouting::kForce}) {
      PpredEngine engine(built, ScoringKind::kNone, CursorMode::kAdaptive,
                         routing);
      for (const char* query : {kPhrase, kNear}) {
        auto parsed = fts::ParseQuery(query, fts::SurfaceLanguage::kComp);
        if (parsed.ok()) (void)engine.Evaluate(*parsed);
      }
    }
    return built;
  }();
  return *index;
}

void RunWithRouting(benchmark::State& state, const char* query,
                    PairRouting routing, ScoringKind scoring) {
  const InvertedIndex& index = PairedIndex();
  PpredEngine engine(&index, scoring, CursorMode::kAdaptive, routing);
  fts::benchutil::RunQuery(state, engine, query);
}

void BM_PhrasePipeline(benchmark::State& state) {
  RunWithRouting(state, kPhrase, PairRouting::kOff, ScoringKind::kNone);
}
BENCHMARK(BM_PhrasePipeline)->Unit(benchmark::kMillisecond);

void BM_PhrasePairIndex(benchmark::State& state) {
  RunWithRouting(state, kPhrase, PairRouting::kForce, ScoringKind::kNone);
}
BENCHMARK(BM_PhrasePairIndex)->Unit(benchmark::kMillisecond);

void BM_NearPipeline(benchmark::State& state) {
  RunWithRouting(state, kNear, PairRouting::kOff, ScoringKind::kNone);
}
BENCHMARK(BM_NearPipeline)->Unit(benchmark::kMillisecond);

void BM_NearPairIndex(benchmark::State& state) {
  RunWithRouting(state, kNear, PairRouting::kForce, ScoringKind::kNone);
}
BENCHMARK(BM_NearPairIndex)->Unit(benchmark::kMillisecond);

// Scored arms: the pair evaluator reproduces the pipeline's TF-IDF
// arithmetic from the packed tf headers — same result bits, same gap.
void BM_NearPipelineTfIdf(benchmark::State& state) {
  RunWithRouting(state, kNear, PairRouting::kOff, ScoringKind::kTfIdf);
}
BENCHMARK(BM_NearPipelineTfIdf)->Unit(benchmark::kMillisecond);

void BM_NearPairIndexTfIdf(benchmark::State& state) {
  RunWithRouting(state, kNear, PairRouting::kForce, ScoringKind::kTfIdf);
}
BENCHMARK(BM_NearPairIndexTfIdf)->Unit(benchmark::kMillisecond);

// A mixed workload: two frequent-pair operators the pair index wins and
// two rare-token proximity queries where the pair plan is not even
// eligible (neither side frequent) and the pipeline's short lists win.
// The oracle arm hard-codes the better plan per query; the adaptive arm
// must pick the same routes from the cost model alone and land within a
// few percent — its only overhead is the per-operator df arithmetic.
const char* kMixed[] = {
    kPhrase,
    "SOME p1 SOME p2 (p1 HAS 'topic2' AND p2 HAS 'topic3' AND "
    "distance(p1, p2, 2))",
    "SOME p1 SOME p2 (p1 HAS 'w9000' AND p2 HAS 'w9001' AND "
    "distance(p1, p2, 2))",
    "SOME p1 SOME p2 (p1 HAS 'w9002' AND p2 HAS 'w9003' AND "
    "odistance(p1, p2, 0))",
};
const PairRouting kMixedOracleRouting[] = {
    PairRouting::kForce, PairRouting::kForce,
    PairRouting::kOff, PairRouting::kOff};

void RunMixed(benchmark::State& state, bool oracle) {
  const InvertedIndex& index = PairedIndex();
  std::vector<std::unique_ptr<PpredEngine>> engines;
  std::vector<fts::LangExprPtr> parsed;
  for (size_t i = 0; i < 4; ++i) {
    engines.push_back(std::make_unique<PpredEngine>(
        &index, ScoringKind::kNone, CursorMode::kAdaptive,
        oracle ? kMixedOracleRouting[i] : PairRouting::kAuto));
    auto query = fts::ParseQuery(kMixed[i], fts::SurfaceLanguage::kComp);
    if (!query.ok()) {
      state.SkipWithError(query.status().ToString().c_str());
      return;
    }
    parsed.push_back(std::move(*query));
  }
  size_t matches = 0;
  uint64_t pair_seeks = 0;
  for (auto _ : state) {
    matches = 0;
    pair_seeks = 0;
    for (size_t i = 0; i < 4; ++i) {
      auto result = engines[i]->Evaluate(parsed[i]);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->nodes.data());
      matches += result->nodes.size();
      pair_seeks += result->counters.pair_seeks;
    }
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["pair_seeks"] = static_cast<double>(pair_seeks);
}

void BM_MixedOracle(benchmark::State& state) { RunMixed(state, true); }
BENCHMARK(BM_MixedOracle)->Unit(benchmark::kMillisecond);

void BM_MixedAdaptive(benchmark::State& state) { RunMixed(state, false); }
BENCHMARK(BM_MixedAdaptive)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fts::benchutil::PrintFigureHeader(
      "micro: pair-index phrase/NEAR",
      "pair-routed arms >= 10x over the position pipeline on frequent-term "
      "operators; adaptive routing within a few percent of the per-query "
      "oracle on the mixed workload");
  return fts::benchutil::BenchMain(argc, argv);
}

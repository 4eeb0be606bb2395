#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/varint_simd.h"
#include "eval/bool_engine.h"
#include "eval/comp_engine.h"
#include "eval/ppred_engine.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "lang/parser.h"

namespace fts::benchutil {

CorpusGenOptions BenchCorpusOptions(uint32_t cnodes, uint32_t occurrences) {
  CorpusGenOptions opts;
  opts.seed = 4242;
  opts.num_nodes = cnodes;
  opts.min_doc_len = 50;
  opts.max_doc_len = 300;
  opts.vocabulary = 20000;
  opts.zipf_skew = 1.0;
  opts.num_topic_tokens = 8;
  opts.topic_doc_fraction = 0.5;
  opts.topic_occurrences = occurrences;
  return opts;
}

const InvertedIndex& SharedIndex(uint32_t cnodes, uint32_t occurrences) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, uint32_t>, std::unique_ptr<InvertedIndex>>* cache =
      new std::map<std::pair<uint32_t, uint32_t>, std::unique_ptr<InvertedIndex>>();
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(cnodes, occurrences);
  auto it = cache->find(key);
  if (it == cache->end()) {
    Corpus corpus = GenerateCorpus(BenchCorpusOptions(cnodes, occurrences));
    auto index = std::make_unique<InvertedIndex>(IndexBuilder::Build(corpus));
    it = cache->emplace(key, std::move(index)).first;
  }
  return *it->second;
}

RawPostings DecodeRaw(const BlockPostingList* list) {
  RawPostings raw;
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (size_t b = 0; list != nullptr && b < list->num_blocks(); ++b) {
    const Status s = list->DecodeBlock(b, &entries, &positions);
    if (!s.ok()) {
      std::fprintf(stderr, "DecodeBlock(%zu): %s\n", b, s.ToString().c_str());
      std::abort();
    }
    for (PostingEntry e : entries) {
      e.pos_begin += static_cast<uint32_t>(raw.positions.size());
      raw.entries.push_back(e);
    }
    raw.positions.insert(raw.positions.end(), positions.begin(), positions.end());
  }
  return raw;
}

std::unique_ptr<Engine> MakeEngine(const std::string& kind, const InvertedIndex* index,
                                   ScoringKind scoring) {
  std::string base = kind;
  CursorMode mode = CursorMode::kSequential;
  const auto strip_suffix = [&base](std::string_view suffix) {
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
      base.resize(base.size() - suffix.size());
      return true;
    }
    return false;
  };
  if (strip_suffix("_SEEK")) {
    mode = CursorMode::kSeek;
  } else if (strip_suffix("_ADAPT")) {
    mode = CursorMode::kAdaptive;
  }
  if (base == "BOOL") return std::make_unique<BoolEngine>(index, scoring, mode);
  if (base == "PPRED") return std::make_unique<PpredEngine>(index, scoring, mode);
  if (base == "NPRED") {
    return std::make_unique<NpredEngine>(
        index, scoring, NpredOrderingMode::kNecessaryPartialOrders, mode);
  }
  if (base == "NPRED_TOTAL") {
    return std::make_unique<NpredEngine>(index, scoring,
                                         NpredOrderingMode::kAllTotalOrders, mode);
  }
  // COMP materializes relations and has no seek mode: reject "COMP_SEEK"
  // rather than silently running sequential under a seek label.
  if (base == "COMP" && mode == CursorMode::kSequential) {
    return std::make_unique<CompEngine>(index, scoring);
  }
  std::fprintf(stderr, "unknown engine kind: %s\n", kind.c_str());
  std::abort();
}

int BenchMain(int argc, char** argv) {
  std::string program = argc > 0 ? argv[0] : "bench";
  const size_t slash = program.find_last_of('/');
  if (slash != std::string::npos) program = program.substr(slash + 1);

  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::vector<std::string> args(argv, argv + argc);
  if (!has_out) {
    args.push_back("--benchmark_out=BENCH_" + program + ".json");
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());

  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  // Record which decode arm the dispatcher resolved to (and whether dense
  // bitset blocks are being built) in the JSON context, so a baseline file
  // always says which configuration produced it.
  benchmark::AddCustomContext("fts_decode_arm", DecodeArmName(ActiveDecodeArm()));
  benchmark::AddCustomContext(
      "fts_bitset_blocks",
      BlockPostingList::DenseBlocksEnabledByDefault() ? "on" : "off");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

void RunQuery(benchmark::State& state, const Engine& engine, const std::string& query) {
  auto parsed = ParseQuery(query, SurfaceLanguage::kComp);
  if (!parsed.ok()) {
    state.SkipWithError(parsed.status().ToString().c_str());
    return;
  }
  QueryResult last;
  for (auto _ : state) {
    auto result = engine.Evaluate(*parsed);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->nodes.data());
    last = std::move(*result);
  }
  state.counters["matches"] = static_cast<double>(last.nodes.size());
  state.counters["entries"] = static_cast<double>(last.counters.entries_scanned);
  state.counters["positions"] = static_cast<double>(last.counters.positions_scanned);
  state.counters["tuples"] = static_cast<double>(last.counters.tuples_materialized);
  state.counters["pred_evals"] = static_cast<double>(last.counters.predicate_evals);
  state.counters["orderings"] = static_cast<double>(last.counters.orderings_run);
  state.counters["simd_groups"] = static_cast<double>(last.counters.simd_groups_decoded);
  state.counters["bitset_ands"] =
      static_cast<double>(last.counters.bitset_blocks_intersected);
}

void PrintFigureHeader(const char* figure, const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper-reported shape: %s\n", expectation);
  std::printf("(absolute times differ from the paper's 2005 testbed; compare\n");
  std::printf(" series shapes and the machine-independent counters)\n");
  std::printf("================================================================\n");
}

}  // namespace fts::benchutil

// fts_build_index: builds index files for fts_server, optionally
// splitting the corpus into contiguous document-partitioned shards
// (docs/serving.md "Quickstart").
//
// Input is either a text file (one context node per line) or the seeded
// synthetic generator the benchmarks use (--gen). With --shards N the
// corpus is cut into N contiguous doc-id ranges via Corpus::Slice and one
// index per shard is written as <out>.shard<i>; the unsplit index is
// always written to <out> so a single-server run (or a differential
// check) uses the same build.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "index/index_io.h"
#include "text/corpus.h"
#include "tool_util.h"
#include "workload/corpus_gen.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: fts_build_index --out PATH [--input FILE | --gen]\n"
               "                       [--shards N] [--nodes N] [--seed N]\n"
               "                       [--pair-terms N] [--pair-distance K]\n"
               "  --out PATH    output index file; shard i goes to PATH.shard<i>\n"
               "  --input FILE  corpus text, one context node per line\n"
               "  --gen         synthetic corpus (workload/corpus_gen.h) instead\n"
               "  --shards N    also write N contiguous doc-range shard indexes\n"
               "  --nodes N     synthetic corpus size (default 6000)\n"
               "  --seed N      synthetic corpus seed (default 42)\n"
               "  --pair-terms N     build pair lists for the top-N frequent\n"
               "                     terms (docs/pair_index.md; default 0 = off)\n"
               "  --pair-distance K  largest NEAR/k the pair lists answer\n"
               "                     (default 5)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  std::string input;
  bool gen = false;
  uint32_t shards = 0;
  fts::CorpusGenOptions gen_options;
  fts::IndexBuildOptions build_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--out") {
      out = next();
    } else if (arg == "--input") {
      input = next();
    } else if (arg == "--gen") {
      gen = true;
    } else if (arg == "--shards") {
      fts_tools::NumberFlagOrDie("fts_build_index", "--shards", next(),
                                 &shards);
    } else if (arg == "--nodes") {
      fts_tools::NumberFlagOrDie("fts_build_index", "--nodes", next(),
                                 &gen_options.num_nodes);
    } else if (arg == "--seed") {
      fts_tools::NumberFlagOrDie("fts_build_index", "--seed", next(),
                                 &gen_options.seed);
    } else if (arg == "--pair-terms") {
      fts_tools::NumberFlagOrDie("fts_build_index", "--pair-terms", next(),
                                 &build_options.pairs.frequent_terms);
    } else if (arg == "--pair-distance") {
      fts_tools::NumberFlagOrDie("fts_build_index", "--pair-distance", next(),
                                 &build_options.pairs.max_distance);
    } else {
      Usage();
    }
  }
  if (out.empty() || (gen == !input.empty())) Usage();

  fts::Corpus corpus;
  if (gen) {
    corpus = fts::GenerateCorpus(gen_options);
  } else {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "fts_build_index: cannot open %s\n", input.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) corpus.AddDocument(line);
    }
  }
  if (corpus.num_nodes() == 0) {
    std::fprintf(stderr, "fts_build_index: empty corpus\n");
    return 1;
  }
  std::printf("corpus: %zu nodes, %zu distinct tokens\n", corpus.num_nodes(),
              corpus.vocabulary_size());

  const fts::InvertedIndex full = fts::IndexBuilder::Build(corpus, build_options);
  fts::Status s = fts::SaveIndexToFile(full, out);
  if (!s.ok()) {
    std::fprintf(stderr, "fts_build_index: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu nodes)\n", out.c_str(), corpus.num_nodes());

  if (shards > 1) {
    // Contiguous even split; the first (num_nodes % shards) shards take one
    // extra node. Shard i's doc-id base is the prefix sum a router will
    // recompute from ping node counts.
    const uint64_t n = corpus.num_nodes();
    uint64_t begin = 0;
    for (uint32_t i = 0; i < shards; ++i) {
      const uint64_t size = n / shards + (i < n % shards ? 1 : 0);
      auto slice = corpus.Slice(static_cast<fts::NodeId>(begin),
                                static_cast<fts::NodeId>(begin + size));
      if (!slice.ok()) {
        std::fprintf(stderr, "fts_build_index: %s\n",
                     slice.status().ToString().c_str());
        return 1;
      }
      const fts::InvertedIndex shard =
          fts::IndexBuilder::Build(*slice, build_options);
      const std::string path = out + ".shard" + std::to_string(i);
      s = fts::SaveIndexToFile(shard, path);
      if (!s.ok()) {
        std::fprintf(stderr, "fts_build_index: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (nodes [%llu, %llu), base %llu)\n", path.c_str(),
                  static_cast<unsigned long long>(begin),
                  static_cast<unsigned long long>(begin + size),
                  static_cast<unsigned long long>(begin));
      begin += size;
    }
  }
  return 0;
}

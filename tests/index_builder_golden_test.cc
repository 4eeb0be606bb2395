// Golden-bytes gate for IndexBuilder: the FNV-1a 64 hash and length of the
// saved (v6) file for fixed corpora and build options are pinned here. Any
// change to the builder's loops, the norm pass or the pair-list builder that
// alters a single output byte fails this test — rewrites of those loops must
// keep the bytes exactly, so the format version never has to move for them.
//
// The hashes were recorded from the map-based builder the current one
// replaced. Bitset blocks are pinned on (the process default is
// environment-controlled) so the expected bytes do not depend on the
// caller's environment.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/fnv.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

/// The paper's corpus shape (CorpusGenOptions defaults) at 1,500 nodes.
const Corpus& PaperCorpus() {
  static const Corpus* corpus = [] {
    CorpusGenOptions opts;
    opts.num_nodes = 1500;
    return new Corpus(GenerateCorpus(opts));
  }();
  return *corpus;
}

/// Edge shapes: an empty document, a document of one repeated token, a
/// frequent/other pair exactly at the max_distance = 2 window edge (gap 3)
/// and one just past it (gap 4), records of one key on both sides of the
/// same offset, and sentence/paragraph breaks.
Corpus EdgeCorpus() {
  Corpus corpus;
  corpus.AddDocument("apple banana cherry apple banana");
  corpus.AddDocument("");
  corpus.AddDocument("echo echo echo echo echo echo");
  corpus.AddDocument("apple x y banana");
  corpus.AddDocument("apple x y z banana");
  corpus.AddDocument("banana x apple banana apple");
  corpus.AddDocument("cherry apple. banana cherry.\n\napple apple banana");
  corpus.AddTokens({});
  corpus.AddDocument("banana");
  return corpus;
}

IndexBuildOptions Pairs(size_t frequent, uint32_t max_distance) {
  IndexBuildOptions options;
  options.pairs.frequent_terms = frequent;
  options.pairs.max_distance = max_distance;
  return options;
}

struct Golden {
  uint64_t size;
  uint64_t fnv;
};

/// Builds `corpus` with `options`, saves it through SaveIndexToFile, and
/// returns the file's length and FNV-1a 64 hash.
Golden SavedFile(const Corpus& corpus, const IndexBuildOptions& options,
                 const std::string& tag) {
  const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(true);
  const InvertedIndex index = IndexBuilder::Build(corpus, options);
  BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
  const std::string path = ::testing::TempDir() + "/fts_golden_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(index, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  const std::string data = bytes.str();
  return {data.size(), Fnv1a64(data)};
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.fnv, want.fnv) << std::hex << "got 0x" << got.fnv
                               << ", want 0x" << want.fnv;
}

TEST(IndexBuilderGoldenTest, PaperCorpusClassic) {
  ExpectGolden(SavedFile(PaperCorpus(), {}, "paper_classic"),
               {2410266, 0x91f2cb7186e9a2aeULL});
}

TEST(IndexBuilderGoldenTest, PaperCorpusPairs16x2) {
  ExpectGolden(SavedFile(PaperCorpus(), Pairs(16, 2), "paper_pairs_16_2"),
               {7790738, 0x95c9cf5aade92ba3ULL});
}

TEST(IndexBuilderGoldenTest, PaperCorpusPairs4x0) {
  ExpectGolden(SavedFile(PaperCorpus(), Pairs(4, 0), "paper_pairs_4_0"),
               {3237888, 0x2423d8e18c1e665dULL});
}

TEST(IndexBuilderGoldenTest, EdgeCorpusClassic) {
  ExpectGolden(SavedFile(EdgeCorpus(), {}, "edge_classic"),
               {567, 0xead5f69b41507236ULL});
}

TEST(IndexBuilderGoldenTest, EdgeCorpusPairs) {
  ExpectGolden(SavedFile(EdgeCorpus(), Pairs(2, 2), "edge_pairs_2_2"),
               {1046, 0x3ca7b33a4821516bULL});
}

}  // namespace
}  // namespace fts

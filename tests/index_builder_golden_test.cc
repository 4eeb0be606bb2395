// Golden-bytes gate for IndexBuilder: the FNV-1a 64 hash and length of the
// saved (v8) file for fixed corpora and build options are pinned here. Any
// change to the builder's loops, the norm pass or the pair-list builder that
// alters a single output byte fails this test — rewrites of those loops must
// keep the bytes exactly, so the format version never has to move for them.
//
// The hashes were recorded with the v8 writer: token lists and IL_ANY
// store offsets only, each node's sentences and paragraphs are stored once
// in the run table, and pair lists store two-lane records — the format
// change moved every file, the entry structure, block boundaries and
// block encodings did not. Bitset blocks are pinned on (the
// process default is environment-controlled) so the expected bytes do not
// depend on the caller's environment.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

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

/// FNV-1a 64 of `data`: the file hash the pins are recorded in.
uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Golden {
  uint64_t size;
  uint64_t fnv;
};

/// Builds `corpus` with `options`, with bitset blocks pinned on.
InvertedIndex Built(const Corpus& corpus, const IndexBuildOptions& options) {
  const bool prev = BlockPostingList::SetDenseBlocksEnabledByDefault(true);
  InvertedIndex index = IndexBuilder::Build(corpus, options);
  BlockPostingList::SetDenseBlocksEnabledByDefault(prev);
  return index;
}

/// The bytes SaveIndexToFile writes for `index`.
std::string FileBytes(const InvertedIndex& index, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/fts_golden_" + tag + ".idx";
  EXPECT_TRUE(SaveIndexToFile(index, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// Builds `corpus` with `options`, saves it through SaveIndexToFile, and
/// returns the file's length and FNV-1a 64 hash.
Golden SavedFile(const Corpus& corpus, const IndexBuildOptions& options,
                 const std::string& tag) {
  const std::string data = FileBytes(Built(corpus, options), tag);
  return {data.size(), Fnv1a64(data)};
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.fnv, want.fnv) << std::hex << "got 0x" << got.fnv
                               << ", want 0x" << want.fnv;
}

TEST(IndexBuilderGoldenTest, PaperCorpusClassic) {
  ExpectGolden(SavedFile(PaperCorpus(), {}, "paper_classic"),
               {1436867, 0x48c6df7df8afd0beULL});
}

TEST(IndexBuilderGoldenTest, PaperCorpusPairs16x2) {
  ExpectGolden(SavedFile(PaperCorpus(), Pairs(16, 2), "paper_pairs_16_2"),
               {5575020, 0x90d02da2b864f496ULL});
}

TEST(IndexBuilderGoldenTest, PaperCorpusPairs4x0) {
  ExpectGolden(SavedFile(PaperCorpus(), Pairs(4, 0), "paper_pairs_4_0"),
               {2085919, 0xcc79419865552619ULL});
}

TEST(IndexBuilderGoldenTest, EdgeCorpusClassic) {
  ExpectGolden(SavedFile(EdgeCorpus(), {}, "edge_classic"),
               {512, 0x52d3ecc8a357d8d7ULL});
}

TEST(IndexBuilderGoldenTest, EdgeCorpusPairs) {
  ExpectGolden(SavedFile(EdgeCorpus(), Pairs(2, 2), "edge_pairs_2_2"),
               {903, 0xc85ef76beaeb499fULL});
}

// 6,000 nodes of the default shape: ~1.05M occurrences, enough that the
// builder splits its passes across two or more workers (on a host with at
// least two cores).
TEST(IndexBuilderGoldenTest, PaperCorpus6000Classic) {
  CorpusGenOptions opts;
  opts.num_nodes = 6000;
  ExpectGolden(SavedFile(GenerateCorpus(opts), {}, "paper_6000_classic"),
               {4663933, 0x429a3f2d7161d8f7ULL});
}

// 24,000 nodes of the default shape with six topic occurrences at seed 1
// (the e2e uniform_mmap corpus): 4,181,093 occurrences, enough for one
// build worker per core on a host with four or more cores.
TEST(IndexBuilderGoldenTest, PaperCorpus24000Classic) {
  CorpusGenOptions opts;
  opts.num_nodes = 24000;
  opts.seed = 1;
  opts.topic_occurrences = 6;
  const Corpus corpus = GenerateCorpus(opts);
  size_t occurrences = 0;
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) occurrences += corpus.doc(n).tokens.size();
  ASSERT_EQ(occurrences, 4181093u);
  ExpectGolden(SavedFile(corpus, {}, "paper_24000_classic"), {19752524, 0x52ac0b6b4a6c0af2ULL});
}

// The file and the string save are one emitter with two sinks: for every
// corpus and option set pinned above they write the same bytes. The 24,000-
// node file has payloads past the file sink's direct-write size and more
// directory bytes than its buffer holds.
TEST(IndexBuilderGoldenTest, FileAndStringSavesWriteTheSameBytes) {
  CorpusGenOptions nodes6000;
  nodes6000.num_nodes = 6000;
  CorpusGenOptions nodes24000;
  nodes24000.num_nodes = 24000;
  nodes24000.seed = 1;
  nodes24000.topic_occurrences = 6;
  const Corpus edge = EdgeCorpus();
  const Corpus paper6000 = GenerateCorpus(nodes6000);
  const Corpus paper24000 = GenerateCorpus(nodes24000);
  const struct {
    const Corpus* corpus;
    IndexBuildOptions options;
  } cases[] = {
      {&PaperCorpus(), {}},
      {&PaperCorpus(), Pairs(16, 2)},
      {&PaperCorpus(), Pairs(4, 0)},
      {&edge, {}},
      {&edge, Pairs(2, 2)},
      {&paper6000, {}},
      {&paper24000, {}},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    const InvertedIndex index = Built(*cases[i].corpus, cases[i].options);
    std::string blob;
    SaveIndexToString(index, &blob);
    EXPECT_TRUE(FileBytes(index, "sinks_" + std::to_string(i)) == blob) << "case " << i;
  }
}

}  // namespace
}  // namespace fts

#include "index/index_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "eval/searcher.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_snapshot.h"
#include "index/index_source.h"
#include "index/pair_index.h"
#include "workload/corpus_gen.h"

#include "raw_postings.h"

namespace fts {
namespace {

InvertedIndex BuildTestIndex() {
  CorpusGenOptions opts;
  opts.num_nodes = 60;
  opts.min_doc_len = 5;
  opts.max_doc_len = 40;
  opts.vocabulary = 200;
  opts.num_topic_tokens = 3;
  Corpus corpus = GenerateCorpus(opts);
  return IndexBuilder::Build(corpus);
}

void ExpectIndexEq(const InvertedIndex& a, const InvertedIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.vocabulary_size(), b.vocabulary_size());
  EXPECT_EQ(a.stats().ToString(), b.stats().ToString());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.unique_tokens(n), b.unique_tokens(n));
    EXPECT_DOUBLE_EQ(a.node_norm(n), b.node_norm(n));
  }
  for (TokenId t = 0; t < a.vocabulary_size(); ++t) {
    ASSERT_EQ(a.token_text(t), b.token_text(t));
    const PostingList la = Materialize(*a.block_list(t));
    const PostingList lb = Materialize(*b.block_list(t));
    ASSERT_EQ(la.num_entries(), lb.num_entries()) << a.token_text(t);
    for (size_t i = 0; i < la.num_entries(); ++i) {
      EXPECT_EQ(la.entry(i).node, lb.entry(i).node);
      auto pa = la.positions(la.entry(i));
      auto pb = lb.positions(lb.entry(i));
      ASSERT_EQ(pa.size(), pb.size());
      for (size_t j = 0; j < pa.size(); ++j) {
        EXPECT_EQ(pa[j], pb[j]);
      }
    }
  }
  ASSERT_EQ(a.block_any_list().num_entries(), b.block_any_list().num_entries());
  EXPECT_EQ(a.block_any_list().total_positions(),
            b.block_any_list().total_positions());
}

/// Loads `data` into a heap buffer, then first-decodes every block of
/// every token list and IL_ANY: the load's error, or else the first
/// decode's. A flipped payload byte passes the load (which parses no
/// payload) and fails its block's first decode.
Status LoadAndDecodeEveryBlock(const std::string& data) {
  InvertedIndex loaded;
  FTS_RETURN_IF_ERROR(LoadIndexFromString(data, &loaded));
  std::vector<BlockPostingList::EntryRef> entries;
  for (TokenId t = 0; t <= loaded.vocabulary_size(); ++t) {
    const BlockPostingList& list = t < loaded.vocabulary_size()
                                       ? *loaded.block_list(t)
                                       : loaded.block_any_list();
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(list.DecodeBlockEntries(b, &entries));
    }
  }
  return Status::OK();
}

TEST(IndexIoTest, StringRoundTrip) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(data, &loaded).ok());
  ExpectIndexEq(index, loaded);
}

TEST(IndexIoTest, FileRoundTrip) {
  InvertedIndex index = BuildTestIndex();
  const std::string path = ::testing::TempDir() + "/fts_index_test.idx";
  ASSERT_TRUE(SaveIndexToFile(index, path).ok());
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromFile(path, &loaded).ok());
  ExpectIndexEq(index, loaded);
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsBadMagic) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  data[0] = 'X';
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromString(data, &loaded).code(), StatusCode::kCorruption);
}

TEST(IndexIoTest, RejectsTruncation) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  data.resize(data.size() / 2);
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromString(data, &loaded).code(), StatusCode::kCorruption);
}

TEST(IndexIoTest, RejectsBitFlips) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  EXPECT_EQ(LoadAndDecodeEveryBlock(data).code(), StatusCode::kCorruption);
}

TEST(IndexIoTest, EmptyIndexRoundTrips) {
  Corpus corpus;
  InvertedIndex index = IndexBuilder::Build(corpus);
  std::string data;
  SaveIndexToString(index, &data);
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(data, &loaded).ok());
  EXPECT_EQ(loaded.num_nodes(), 0u);
  EXPECT_EQ(loaded.vocabulary_size(), 0u);
}

TEST(IndexIoTest, MissingFileIsIOError) {
  // Unopenable files are IOError — distinct from Corruption, which means
  // the file opened but is not a parseable index.
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromFile("/nonexistent/path/index.idx", &loaded).code(),
            StatusCode::kIOError);
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  EXPECT_EQ(LoadIndexFromFile("/nonexistent/path/index.idx", &loaded, mmap).code(),
            StatusCode::kIOError);
}

TEST(IndexIoTest, SaveToFullDeviceIsIOError) {
  // /dev/full accepts the open and fails every write with ENOSPC: the
  // save's one buffered write at its end must still fail it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  const InvertedIndex index = IndexBuilder::Build(corpus);
  const Status saved = SaveIndexToFile(index, "/dev/full");
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  EXPECT_EQ(saved.message(), "short write: /dev/full");
}

TEST(IndexIoTest, SaveToUnopenablePathIsIOError) {
  Corpus corpus;
  corpus.AddDocument("alpha beta");
  const InvertedIndex index = IndexBuilder::Build(corpus);
  const Status saved = SaveIndexToFile(index, "/nonexistent/path/index.idx");
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  EXPECT_EQ(saved.message(), "cannot open for write: /nonexistent/path/index.idx");
}

TEST(IndexIoTest, TooSmallFilesAreRejectedWithDistinctMessage) {
  // Files below the fixed envelope (8-byte magic + 8-byte checksum) must be
  // rejected with a size message before any section parsing can produce a
  // confusing error — in every load mode, and for empty files too.
  const std::string path = ::testing::TempDir() + "/fts_tiny.idx";
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{15}}) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write("FTSIDX7\0ABCDEFG", static_cast<std::streamsize>(len));
    }
    for (auto mode : {LoadOptions::Mode::kEager, LoadOptions::Mode::kMmap}) {
      LoadOptions opts;
      opts.mode = mode;
      InvertedIndex loaded;
      const Status s = LoadIndexFromFile(path, &loaded, opts);
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << len;
      EXPECT_NE(s.ToString().find("smaller than the fixed envelope"),
                std::string::npos)
          << len << ": " << s.ToString();
    }
    InvertedIndex loaded;
    const Status s = LoadIndexFromString(std::string(len, 'x'), &loaded);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << len;
  }
  std::remove(path.c_str());
}

TEST(IndexIoTest, SavesTheV7Magic) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  EXPECT_EQ(data.substr(0, 8), std::string("FTSIDX7\0", 8));
}

TEST(IndexIoTest, RetiredFormatsFailClosed) {
  // Files of the retired v1-v6 formats are rejected in every load mode with
  // a message naming the version and the fix, not a generic magic error.
  // The body is a valid v7 one, so only the magic can reject it.
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  const std::string path = ::testing::TempDir() + "/fts_retired_magic.idx";
  for (char version = '1'; version <= '6'; ++version) {
    std::string old = data;
    old[6] = version;
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(old.data(), static_cast<std::streamsize>(old.size()));
    }
    const std::string want = std::string("index format v") + version +
                             " is no longer supported; rebuild the index "
                             "to write the current v7 format";
    InvertedIndex loaded;
    std::vector<Status> results = {LoadIndexFromString(old, &loaded)};
    for (auto mode : {LoadOptions::Mode::kEager, LoadOptions::Mode::kMmap}) {
      LoadOptions opts;
      opts.mode = mode;
      results.push_back(LoadIndexFromFile(path, &loaded, opts));
    }
    for (const Status& s : results) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << version;
      EXPECT_NE(s.message().find(want), std::string::npos)
          << version << ": " << s.ToString();
    }
  }
  // Any other magic keeps the generic error.
  std::string unknown = data;
  unknown[6] = '8';
  InvertedIndex loaded;
  const Status s = LoadIndexFromString(unknown, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("bad index magic"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(IndexIoTest, SurvivesResaveRoundTrip) {
  // save -> load -> save is byte-stable and content-equal (max_tf
  // round-trips through the skip directory, so a resave regenerates
  // identical bytes rather than recomputing different bounds).
  InvertedIndex index = BuildTestIndex();
  std::string first, second;
  SaveIndexToString(index, &first);
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(first, &loaded).ok());
  SaveIndexToString(loaded, &second);
  EXPECT_EQ(first, second);
}

TEST(IndexIoTest, RoundTripsExactBlockMaxima) {
  // The loaded skip directory must carry the same per-block max_tf the
  // builder computed — an understated bound would make block-max skipping
  // drop true results.
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(data, &loaded).ok());
  EXPECT_EQ(loaded.scoring_stats().min_uniq_norm,
            index.scoring_stats().min_uniq_norm);
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const BlockPostingList* a = index.block_list(t);
    const BlockPostingList* b = loaded.block_list(t);
    ASSERT_EQ(a->num_blocks(), b->num_blocks());
    for (size_t blk = 0; blk < a->num_blocks(); ++blk) {
      EXPECT_EQ(a->skip(blk).max_tf, b->skip(blk).max_tf) << t << ":" << blk;
      EXPECT_GT(b->skip(blk).max_tf, 0u);  // every block has >= 1 position
    }
  }
}

TEST(IndexIoTest, MmapLoadStaysLazyAndKeepsBlockMaxima) {
  InvertedIndex index = BuildTestIndex();
  const std::string path = ::testing::TempDir() + "/fts_mmap_block_max.idx";
  ASSERT_TRUE(SaveIndexToFile(index, path).ok());
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  EXPECT_GT(mapped.MappedBytes(), 0u);
  for (TokenId t = 0; t < mapped.vocabulary_size(); ++t) {
    const BlockPostingList* a = index.block_list(t);
    const BlockPostingList* b = mapped.block_list(t);
    ASSERT_EQ(a->num_blocks(), b->num_blocks());
    for (size_t blk = 0; blk < a->num_blocks(); ++blk) {
      EXPECT_EQ(a->skip(blk).max_tf, b->skip(blk).max_tf) << t << ":" << blk;
    }
  }
  ExpectIndexEq(index, mapped);
  std::remove(path.c_str());
}

// Bit equality, so two records that merely compare equal (0.0 vs -0.0) or
// are both NaN cannot pass for each other.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectOwnRecord(const InvertedIndex& index,
                     const SegmentScoringStats& own) {
  EXPECT_EQ(own.live_nodes, index.num_nodes());
  EXPECT_EQ(own.df_by_text, nullptr);
  ASSERT_EQ(own.global_df.size(), index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    EXPECT_EQ(own.global_df[t], index.block_list(t)->num_entries()) << t;
    EXPECT_EQ(own.global_df[t], index.df(t)) << t;
  }
  ASSERT_EQ(own.norms.size(), index.num_nodes());
}

void ExpectSameNorms(const SegmentScoringStats& a,
                     const SegmentScoringStats& b) {
  ASSERT_EQ(a.norms.size(), b.norms.size());
  for (size_t n = 0; n < a.norms.size(); ++n) {
    EXPECT_TRUE(SameBits(a.norms[n], b.norms[n])) << n;
  }
  EXPECT_TRUE(SameBits(a.min_uniq_norm, b.min_uniq_norm));
}

TEST(IndexIoTest, OwnScoringRecordMatchesAcrossBuildLoadsAndShardOfOne) {
  InvertedIndex built = BuildTestIndex();
  std::string data;
  SaveIndexToString(built, &data);
  auto eager = std::make_shared<InvertedIndex>();
  ASSERT_TRUE(LoadIndexFromString(data, eager.get()).ok());
  const std::string path = ::testing::TempDir() + "/fts_own_record.idx";
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped,
                                {.mode = LoadOptions::Mode::kMmap})
                  .ok());

  // Build, eager load and mmap load carry one and the same record.
  const SegmentScoringStats own = built.scoring_stats();
  ExpectOwnRecord(built, own);
  ExpectOwnRecord(*eager, eager->scoring_stats());
  ExpectOwnRecord(mapped, mapped.scoring_stats());
  ExpectSameNorms(own, eager->scoring_stats());
  ExpectSameNorms(own, mapped.scoring_stats());

  // ForIndex takes the index's own record as its one segment's.
  const std::shared_ptr<const IndexSnapshot> single =
      IndexSnapshot::ForIndex(&built);
  StatusOr<std::span<const SegmentScoringStats>> single_stats =
      single->ScoringStats();
  ASSERT_TRUE(single_stats.ok());
  ASSERT_EQ(single_stats->size(), 1u);
  EXPECT_EQ((*single_stats)[0].global_df.data(), own.global_df.data());
  EXPECT_EQ((*single_stats)[0].norms.data(), own.norms.data());

  // A shard of one, handed its own df table, recomputes the same record
  // through the snapshot-global pass.
  std::unordered_map<std::string, uint32_t> df_by_text;
  ASSERT_TRUE(AddLiveDfByText(*eager, nullptr, &df_by_text).ok());
  StatusOr<std::shared_ptr<const IndexSnapshot>> shard =
      IndexSnapshot::CreateSharded(eager, eager->num_nodes(),
                                   std::move(df_by_text));
  ASSERT_TRUE(shard.ok());
  StatusOr<std::span<const SegmentScoringStats>> shard_stats =
      (*shard)->ScoringStats();
  ASSERT_TRUE(shard_stats.ok());
  ASSERT_EQ(shard_stats->size(), 1u);
  const SegmentScoringStats& recomputed = (*shard_stats)[0];
  EXPECT_EQ(recomputed.live_nodes, own.live_nodes);
  ASSERT_EQ(recomputed.global_df.size(), own.global_df.size());
  for (TokenId t = 0; t < own.global_df.size(); ++t) {
    EXPECT_EQ(recomputed.global_df[t], own.global_df[t]) << t;
  }
  ExpectSameNorms(own, recomputed);

  // So scored search over the index and over the shard of one agree on
  // node ids and score bits.
  const char* const kQueries[] = {
      "'topic0'",
      "'topic0' AND 'topic1'",
      "'topic1' OR 'w3' OR 'doesnotexist'",
      "'topic0' AND NOT 'topic2'",
      "SOME p SOME q (p HAS 'topic0' AND q HAS 'topic1' AND distance(p, q, 3))",
  };
  for (const ScoringKind scoring :
       {ScoringKind::kTfIdf, ScoringKind::kProbabilistic}) {
    const Searcher over_index(single, {.scoring = scoring});
    const Searcher over_shard(*shard, {.scoring = scoring});
    for (const size_t top_k : {size_t{0}, size_t{10}}) {
      for (const char* query : kQueries) {
        SCOPED_TRACE(std::string(ScoringKindToString(scoring)) + " top_k=" +
                     std::to_string(top_k) + " " + query);
        ExecContext a_ctx;
        ExecContext b_ctx;
        a_ctx.set_top_k(top_k);
        b_ctx.set_top_k(top_k);
        StatusOr<RoutedResult> a = over_index.Search(query, a_ctx);
        StatusOr<RoutedResult> b = over_shard.Search(query, b_ctx);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_FALSE(a->result.nodes.empty());
        EXPECT_EQ(a->result.nodes, b->result.nodes);
        ASSERT_EQ(a->result.scores.size(), b->result.scores.size());
        for (size_t i = 0; i < a->result.scores.size(); ++i) {
          EXPECT_TRUE(SameBits(a->result.scores[i], b->result.scores[i])) << i;
        }
      }
    }
  }
  std::remove(path.c_str());
}

// A corpus dense enough that every topic token's posting blocks satisfy
// the bitset classification (128-entry blocks over consecutive node ids:
// span == entries, well under kDenseSpanFactor).
InvertedIndex BuildDenseTestIndex() {
  CorpusGenOptions opts;
  opts.num_nodes = 400;
  opts.min_doc_len = 10;
  opts.max_doc_len = 30;
  opts.vocabulary = 100;
  opts.num_topic_tokens = 2;
  opts.topic_doc_fraction = 1.0;
  opts.topic_occurrences = 3;
  return IndexBuilder::Build(GenerateCorpus(opts));
}

bool AnyBitsetList(const InvertedIndex& index) {
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    if (index.block_list(t)->has_bitset_blocks()) return true;
  }
  return false;
}

TEST(IndexIoTest, RoundTripsBitsetBlocks) {
  // A hybrid list (dense bitset + sparse varint blocks) survives a
  // save/load byte- and content-exactly, in both storage modes, and the
  // loaded lists keep their bitset encoding (the tag round-trips through
  // the skip directory rather than being re-derived).
  InvertedIndex index = BuildDenseTestIndex();
  ASSERT_TRUE(AnyBitsetList(index)) << "corpus not dense enough to exercise "
                                       "bitset blocks";
  std::string data;
  SaveIndexToString(index, &data);
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(data, &loaded).ok());
  EXPECT_TRUE(AnyBitsetList(loaded));
  ExpectIndexEq(index, loaded);

  const std::string path = ::testing::TempDir() + "/fts_dense.idx";
  ASSERT_TRUE(SaveIndexToFile(index, path).ok());
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  EXPECT_GT(mapped.MappedBytes(), 0u);
  EXPECT_TRUE(AnyBitsetList(mapped));
  ExpectIndexEq(index, mapped);
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsEveryDirectoryBitFlip) {
  // The trailer hash covers the whole directory, including the per-block
  // encoding tags — so flipping any byte before the first payload must
  // surface as Corruption, never as a silently reinterpreted block: at
  // load, or (for a payload byte, under its block checksum) at the
  // block's first decode.
  InvertedIndex index = BuildDenseTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  for (size_t i = 8; i < data.size(); i += 97) {  // strided full-file sweep
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_EQ(LoadAndDecodeEveryBlock(mutated).code(), StatusCode::kCorruption)
        << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Storage modes: eager heap loads vs mmap'd lazy loads.
// ---------------------------------------------------------------------------

TEST(IndexIoTest, StorageModeMatrix) {
  InvertedIndex built = BuildTestIndex();
  EXPECT_EQ(built.MappedBytes(), 0u);

  const std::string path = ::testing::TempDir() + "/fts_storage_matrix.idx";
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());

  InvertedIndex eager;
  ASSERT_TRUE(LoadIndexFromFile(path, &eager).ok());
  EXPECT_EQ(eager.MappedBytes(), 0u);

  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  EXPECT_GT(mapped.MappedBytes(), 0u);
  // Mapped payload bytes are page-cache backed, not heap: the resident
  // accounting of the mapped index must come in below the eager load's
  // (which holds the whole file in its heap source buffer).
  EXPECT_LT(mapped.MemoryUsage(), eager.MemoryUsage());

  ExpectIndexEq(eager, mapped);  // decodes every block: first-touch passes
  ExpectIndexEq(built, mapped);
  std::remove(path.c_str());
}

TEST(IndexIoTest, EagerReadHoldsExactlyTheFile) {
  // The eager path reads into one buffer of exactly the file's size, and
  // that buffer is what the loaded index is charged for its payload.
  const std::string path = ::testing::TempDir() + "/fts_sized_read.idx";
  ASSERT_TRUE(SaveIndexToFile(BuildTestIndex(), path).ok());
  const size_t file_bytes = std::filesystem::file_size(path);
  StatusOr<std::shared_ptr<IndexSource>> source = IndexSource::ReadFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ((*source)->size(), file_bytes);
  EXPECT_EQ((*source)->resident_bytes(), file_bytes);
  EXPECT_FALSE((*source)->is_mapped());
  std::remove(path.c_str());
}

TEST(IndexIoTest, EagerReadFailureIsIOError) {
  // A directory opens and stats like a file, but reading it fails: that
  // is an IOError, never a truncated buffer parsed into Corruption.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fts_unreadable.idx";
  std::filesystem::create_directories(dir);
  struct stat st = {};
  if (::stat(dir.c_str(), &st) != 0 || st.st_size == 0) {
    std::filesystem::remove(dir);
    GTEST_SKIP() << "directories report size 0 here: no read is attempted";
  }
  EXPECT_EQ(IndexSource::ReadFile(dir.string()).status().code(),
            StatusCode::kIOError);
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromFile(dir.string(), &loaded).code(),
            StatusCode::kIOError);
  std::filesystem::remove(dir);
}

/// Heap bytes the process holds (arena chunks in use plus mmap'd chunks).
size_t HeapInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

TEST(IndexIoTest, EagerLoadPaysAFixedRecordPerListAndBlock) {
  // A pair-indexed index of more than 10k lists, almost all of them one
  // block long. Loaded eagerly, each list costs one fixed-size record and
  // each block one slot in each of the index's three per-block arrays;
  // loading allocates nothing per list.
  CorpusGenOptions gen;
  gen.seed = 7;
  gen.num_nodes = 300;
  gen.vocabulary = 20000;
  IndexBuildOptions build;
  build.pairs.frequent_terms = 16;
  build.pairs.max_distance = 2;
  const std::string path = ::testing::TempDir() + "/fts_per_list_cost.idx";
  const InvertedIndex built = IndexBuilder::Build(GenerateCorpus(gen), build);
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());
  const size_t file_bytes = std::filesystem::file_size(path);

  InvertedIndex loaded;
  const size_t heap_before = HeapInUse();
  ASSERT_TRUE(LoadIndexFromFile(path, &loaded).ok());
  const size_t heap_after = HeapInUse();
  std::remove(path.c_str());
  ASSERT_NE(loaded.pair_index(), nullptr);

  size_t blocks = loaded.block_any_list().num_blocks();
  size_t dictionary = 0;
  for (TokenId t = 0; t < loaded.vocabulary_size(); ++t) {
    blocks += loaded.block_list(t)->num_blocks();
    // Spelling in the token table and in the lookup map's node (heap
    // bytes when too long to sit inline), the node's id and chain and
    // hash words, a bucket, and the df slot.
    const size_t text = loaded.token_text(t).size() + 1;
    dictionary += 2 * sizeof(std::string) + 2 * text + 4 * sizeof(void*) +
                  sizeof(uint32_t);
  }
  const PairIndex& pairs = *loaded.pair_index();
  for (size_t i = 0; i < pairs.num_keys(); ++i) blocks += pairs.list(i).num_blocks();
  const size_t lists = loaded.num_lists();
  ASSERT_EQ(lists, loaded.vocabulary_size() + 1 + pairs.num_keys());
  ASSERT_GE(lists, 10000u);
  const size_t per_node =
      loaded.num_nodes() * (sizeof(uint32_t) + sizeof(double));
  // The index objects and the frequent-term tables.
  constexpr size_t kFixed = 4096;
  const size_t usage = loaded.MemoryUsage();
  ASSERT_GE(usage, file_bytes);
  EXPECT_LE(usage - file_bytes,
            96 * lists + 32 * blocks + dictionary + per_node + kFixed)
      << "lists=" << lists << " blocks=" << blocks;

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  // The accounting is what the process holds: glibc's heap grew across
  // the load by MemoryUsage() give or take 10%.
  const double growth = static_cast<double>(heap_after - heap_before);
  EXPECT_NEAR(growth, static_cast<double>(usage), 0.1 * static_cast<double>(usage));
#else
  (void)heap_before;
  (void)heap_after;
#endif
}

TEST(IndexIoTest, MmapSourceOutlivesFileRemoval) {
  // POSIX mmap pins the inode: removing (or write-then-rename replacing)
  // the file under a mapped index must not invalidate it — this is the
  // safe index-replacement protocol documented in docs/index_format.md.
  InvertedIndex index = BuildTestIndex();
  const std::string path = ::testing::TempDir() + "/fts_mmap_unlink.idx";
  ASSERT_TRUE(SaveIndexToFile(index, path).ok());
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  std::remove(path.c_str());
  ExpectIndexEq(index, mapped);  // every block decodes from the pinned map
}

TEST(IndexIoTest, LazyLoadValidatesHeaderCorruptionUpFront) {
  // Header/directory bytes (everything before the first payload) are
  // covered by the trailer checksum and verified even on lazy loads.
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  const std::string path = ::testing::TempDir() + "/fts_mmap_header_flip.idx";
  std::string mutated = data;
  mutated[10] = static_cast<char>(mutated[10] ^ 0x20);  // stats section
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromFile(path, &loaded, mmap).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fts

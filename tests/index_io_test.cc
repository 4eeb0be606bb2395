#include "index/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "workload/corpus_gen.h"

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
    const PostingList la = a.block_list(t)->Materialize();
    const PostingList lb = b.block_list(t)->Materialize();
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
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromString(data, &loaded).code(), StatusCode::kCorruption);
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

TEST(IndexIoTest, TooSmallFilesAreRejectedWithDistinctMessage) {
  // Files below the fixed envelope (8-byte magic + 8-byte checksum) must be
  // rejected with a size message before any section parsing can produce a
  // confusing error — in every load mode, and for empty files too.
  const std::string path = ::testing::TempDir() + "/fts_tiny.idx";
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{15}}) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write("FTSIDX6\0ABCDEFG", static_cast<std::streamsize>(len));
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

TEST(IndexIoTest, SavesTheV6Magic) {
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  EXPECT_EQ(data.substr(0, 8), std::string("FTSIDX6\0", 8));
}

TEST(IndexIoTest, RetiredFormatsFailClosed) {
  // Files of the retired v1-v5 formats are rejected in every load mode with
  // a message naming the version and the fix, not a generic magic error.
  // The body is a valid v6 one, so only the magic can reject it.
  InvertedIndex index = BuildTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  const std::string path = ::testing::TempDir() + "/fts_retired_magic.idx";
  for (char version = '1'; version <= '5'; ++version) {
    std::string old = data;
    old[6] = version;
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(old.data(), static_cast<std::streamsize>(old.size()));
    }
    const std::string want = std::string("index format v") + version +
                             " is no longer supported; rebuild the index";
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
  unknown[6] = '7';
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
  EXPECT_EQ(loaded.min_uniq_norm(), index.min_uniq_norm());
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
  EXPECT_TRUE(mapped.lazy_validation());
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
  EXPECT_TRUE(mapped.lazy_validation());
  EXPECT_TRUE(AnyBitsetList(mapped));
  ExpectIndexEq(index, mapped);
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsEveryDirectoryBitFlip) {
  // The trailer hash covers the whole directory, including the per-block
  // encoding tags — so flipping any byte before the first payload
  // (conservatively: anywhere in the file; eager loads validate all
  // payloads too) must surface as Corruption, never as a silently
  // reinterpreted block.
  InvertedIndex index = BuildDenseTestIndex();
  std::string data;
  SaveIndexToString(index, &data);
  for (size_t i = 8; i < data.size(); i += 97) {  // strided full-file sweep
    std::string mutated = data;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    InvertedIndex loaded;
    EXPECT_EQ(LoadIndexFromString(mutated, &loaded).code(),
              StatusCode::kCorruption)
        << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Storage modes: eager heap loads vs mmap'd lazy loads.
// ---------------------------------------------------------------------------

TEST(IndexIoTest, StorageModeMatrix) {
  InvertedIndex built = BuildTestIndex();
  EXPECT_EQ(built.storage(), IndexStorage::kOwned);
  EXPECT_FALSE(built.lazy_validation());
  EXPECT_EQ(built.MappedBytes(), 0u);

  const std::string path = ::testing::TempDir() + "/fts_storage_matrix.idx";
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());

  InvertedIndex eager;
  ASSERT_TRUE(LoadIndexFromFile(path, &eager).ok());
  EXPECT_EQ(eager.storage(), IndexStorage::kHeapBuffer);
  EXPECT_FALSE(eager.lazy_validation());
  EXPECT_EQ(eager.MappedBytes(), 0u);

  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  InvertedIndex mapped;
  ASSERT_TRUE(LoadIndexFromFile(path, &mapped, mmap).ok());
  EXPECT_EQ(mapped.storage(), IndexStorage::kMapped);
  EXPECT_TRUE(mapped.lazy_validation());
  EXPECT_GT(mapped.MappedBytes(), 0u);
  // Mapped payload bytes are page-cache backed, not heap: the resident
  // accounting of the mapped index must come in below the eager load's
  // (which holds the whole file in its heap source buffer).
  EXPECT_LT(mapped.MemoryUsage(), eager.MemoryUsage());

  ExpectIndexEq(eager, mapped);  // decodes every block: first-touch passes
  ExpectIndexEq(built, mapped);
  std::remove(path.c_str());
}

TEST(IndexIoTest, PrefaultWarmupLoadsIdentically) {
  // LoadOptions::prefault touches every page of the mapping at load time
  // (madvise(MADV_WILLNEED) + a synchronous walk). It must not change any
  // observable property of the loaded index: same storage mode, same lazy
  // first-touch validation, same contents.
  InvertedIndex built = BuildTestIndex();
  const std::string path = ::testing::TempDir() + "/fts_prefault.idx";
  ASSERT_TRUE(SaveIndexToFile(built, path).ok());

  LoadOptions warm;
  warm.mode = LoadOptions::Mode::kMmap;
  warm.prefault = true;
  InvertedIndex prefaulted;
  ASSERT_TRUE(LoadIndexFromFile(path, &prefaulted, warm).ok());
  EXPECT_EQ(prefaulted.storage(), IndexStorage::kMapped);
  EXPECT_TRUE(prefaulted.lazy_validation());
  EXPECT_GT(prefaulted.MappedBytes(), 0u);
  ExpectIndexEq(built, prefaulted);

  // prefault on an eager load is ignored, not an error.
  LoadOptions eager;
  eager.prefault = true;
  InvertedIndex heap;
  ASSERT_TRUE(LoadIndexFromFile(path, &heap, eager).ok());
  EXPECT_EQ(heap.storage(), IndexStorage::kHeapBuffer);
  ExpectIndexEq(built, heap);
  std::remove(path.c_str());
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

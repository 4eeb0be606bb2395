// Robustness fuzzing: random byte soup through the parser must produce a
// clean error or a valid tree (never crash); random mutations of a
// serialized index must be rejected or load to a structurally sane index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"
#include "common/varint.h"
#include "eval/bool_engine.h"
#include "eval/router.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "workload/corpus_gen.h"

namespace fts {
namespace {

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomPrintableInputNeverCrashes) {
  Rng rng(GetParam());
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz '()0123456789,ANDORNOTSOMEEVERYHASdistance_";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    const size_t len = rng.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    auto parsed = ParseQuery(input, SurfaceLanguage::kComp);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << input;
      continue;
    }
    // Whatever parsed must print and re-parse.
    auto reparsed = ParseQuery((*parsed)->ToString(), SurfaceLanguage::kComp);
    EXPECT_TRUE(reparsed.ok()) << input << " -> " << (*parsed)->ToString();
    // Translation either succeeds (closed query) or reports a clean error.
    auto calc = TranslateToCalculus(*parsed);
    if (!calc.ok()) {
      EXPECT_EQ(calc.status().code(), StatusCode::kInvalidArgument) << input;
    }
  }
}

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const size_t len = rng.Uniform(40);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto parsed = ParseQuery(input, SurfaceLanguage::kComp);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(11, 22, 33));

class IndexFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexFuzz, MutatedBlobsAreRejectedOrSane) {
  CorpusGenOptions opts;
  opts.seed = 5;
  opts.num_nodes = 40;
  opts.min_doc_len = 5;
  opts.max_doc_len = 30;
  opts.vocabulary = 100;
  Corpus corpus = GenerateCorpus(opts);
  InvertedIndex index = IndexBuilder::Build(corpus);
  std::string blob;
  SaveIndexToString(index, &blob);

  Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = blob;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.Uniform(3)) {
        case 0: {  // flip a byte
          size_t pos = rng.Uniform(mutated.size());
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.Uniform(8)));
          break;
        }
        case 1:  // truncate
          mutated.resize(rng.Uniform(mutated.size() + 1));
          break;
        default:  // append garbage
          mutated.push_back(static_cast<char>(rng.Uniform(256)));
          break;
      }
    }
    InvertedIndex loaded;
    Status s = LoadIndexFromString(mutated, &loaded);
    // The checksum makes accidental acceptance astronomically unlikely;
    // whichever way it goes, nothing may crash, and an accepted index must
    // answer queries without faulting.
    if (s.ok()) {
      QueryRouter router(&loaded);
      auto r = router.Evaluate("'w0' AND 'w1'");
      (void)r;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexFuzz, ::testing::Values(7, 8));

// ---------------------------------------------------------------------------
// Shared fixtures: a small index, file helpers, and a resealer.
// ---------------------------------------------------------------------------

std::string SaveSmallIndex() {
  CorpusGenOptions opts;
  opts.seed = 11;
  opts.num_nodes = 50;
  opts.min_doc_len = 5;
  opts.max_doc_len = 40;
  opts.vocabulary = 120;
  Corpus corpus = GenerateCorpus(opts);
  InvertedIndex index = IndexBuilder::Build(corpus);
  std::string blob;
  SaveIndexToString(index, &blob);
  return blob;
}

size_t SweepStride() {
  return std::getenv("FTS_MMAP_EXHAUSTIVE") != nullptr ? 1 : 7;
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good());
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(f.good());
}

Status LoadMapped(const std::string& path, InvertedIndex* out) {
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  return LoadIndexFromFile(path, out, mmap);
}

/// Streams one list through a cursor (the production read path) and
/// returns its first sticky decode error.
Status DrainList(const BlockPostingList* list) {
  BlockListCursor cursor(list);
  while (cursor.NextEntry() != kInvalidNode) {
    (void)cursor.GetPositions();
    if (!cursor.status().ok()) break;
  }
  return cursor.status();
}

/// Decodes every block and PosList of every list through cursors — token
/// lists, IL_ANY, and any pair lists — and returns the first sticky
/// decode error.
Status TouchEveryBlock(const InvertedIndex& index) {
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    FTS_RETURN_IF_ERROR(DrainList(index.block_list(t)));
  }
  FTS_RETURN_IF_ERROR(DrainList(&index.block_any_list()));
  if (const PairIndex* pairs = index.pair_index()) {
    for (size_t i = 0; i < pairs->num_keys(); ++i) {
      FTS_RETURN_IF_ERROR(DrainList(&pairs->list(i)));
    }
  }
  return Status::OK();
}

/// Re-seals a (mutated) v6 blob: recomputes every per-block payload
/// checksum and the trailer hash over the header/directory bytes. Both are
/// recomputable by anyone, so they only catch accidents; resealing lets a
/// mutation through to the structural validators behind them, which are
/// what must stop a crafted file. Walks the layout of
/// docs/index_format.md, copying every other byte verbatim. Returns false
/// when the bytes no longer parse far enough to reseal (the loader then
/// sees the unsealed blob, which must fail anyway).
class V6Resealer {
 public:
  explicit V6Resealer(std::string_view in) : in_(in) {}

  bool Run(std::string* sealed) {
    if (in_.size() < 16) return false;
    out_.assign(in_.substr(0, 8));  // magic
    off_ = 8;
    uint64_t cnodes, vocab, len, count;
    // Statistics: two varint64, three varint32, three doubles.
    if (!Copy(&cnodes) || !Copy() || !Copy() || !Copy() || !Copy() ||
        !CopyBytes(24)) {
      return false;
    }
    for (uint64_t n = 0; n < cnodes; ++n) {
      if (!Copy() || !CopyBytes(8)) return false;
    }
    if (!Copy(&vocab)) return false;
    for (uint64_t t = 0; t < vocab; ++t) {
      if (!Copy(&len) || !CopyBytes(len)) return false;
    }
    for (uint64_t t = 0; t <= vocab; ++t) {  // token lists, then IL_ANY
      if (!List()) return false;
    }
    // Pair section: max_distance, frequent table, keys with inline lists.
    if (!Copy() || !Copy(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!Copy()) return false;
    }
    if (!Copy(&count)) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!Copy() || !Copy() || !List()) return false;
    }
    if (off_ + 8 != in_.size()) return false;
    uint64_t hash = kFnv1aSeed;
    size_t mark = 8;
    for (const auto& [begin, end] : payloads_) {
      hash = Fnv1aAccumulate(hash,
                             std::string_view(out_).substr(mark, begin - mark));
      mark = end;
    }
    hash = Fnv1aAccumulate(hash, std::string_view(out_).substr(mark));
    char trailer[8];
    std::memcpy(trailer, &hash, 8);
    out_.append(trailer, 8);
    *sealed = std::move(out_);
    return true;
  }

 private:
  /// Reads one varint without copying it.
  bool Skip(uint64_t* value = nullptr) {
    uint64_t v;
    if (!GetVarint64(in_, &off_, &v).ok()) return false;
    if (value != nullptr) *value = v;
    return true;
  }

  /// Copies one varint verbatim.
  bool Copy(uint64_t* value = nullptr) {
    const size_t begin = off_;
    if (!Skip(value)) return false;
    out_.append(in_.substr(begin, off_ - begin));
    return true;
  }

  bool CopyBytes(uint64_t n) {
    if (n > in_.size() - off_) return false;
    out_.append(in_.substr(off_, n));
    off_ += n;
    return true;
  }

  /// One list: header and directory, with each block's checksum varint
  /// recomputed over the block's payload range, then the payload.
  bool List() {
    uint64_t num_blocks;
    if (!Copy() || !Copy() || !Copy() || !Copy(&num_blocks)) return false;
    struct Block {
      std::string_view head;  // max_node delta, byte_offset delta, count
      std::string_view tail;  // max_tf, encoding
      uint64_t offset;
    };
    std::vector<Block> blocks;
    uint64_t offset = 0;
    for (uint64_t b = 0; b < num_blocks; ++b) {
      const size_t head = off_;
      uint64_t d_off;
      if (!Skip() || !Skip(&d_off) || !Skip()) return false;
      const size_t head_end = off_;
      if (!Skip()) return false;  // the stale checksum
      const size_t tail = off_;
      if (!Skip() || !Skip()) return false;
      offset += d_off;
      blocks.push_back({in_.substr(head, head_end - head),
                        in_.substr(tail, off_ - tail), offset});
    }
    const size_t size_begin = off_;
    uint64_t data_size;
    if (!Skip(&data_size) || data_size > in_.size() - off_) return false;
    const std::string_view payload = in_.substr(off_, data_size);
    for (size_t b = 0; b < blocks.size(); ++b) {
      const uint64_t begin = std::min(blocks[b].offset, data_size);
      const uint64_t end = b + 1 < blocks.size()
                               ? std::min(blocks[b + 1].offset, data_size)
                               : data_size;
      out_.append(blocks[b].head);
      PutVarint32(&out_,
                  Fnv1a32(payload.substr(begin, end > begin ? end - begin : 0)));
      out_.append(blocks[b].tail);
    }
    out_.append(in_.substr(size_begin, off_ - size_begin));
    payloads_.emplace_back(out_.size(), out_.size() + data_size);
    out_.append(payload);
    off_ += data_size;
    return true;
  }

  std::string_view in_;
  size_t off_ = 0;
  std::string out_;
  std::vector<std::pair<size_t, size_t>> payloads_;  // [begin, end) in out_
};

/// Reseals `blob` in place when it still parses; see V6Resealer.
bool ResealV6(std::string* blob) {
  std::string sealed;
  if (!V6Resealer(*blob).Run(&sealed)) return false;
  *blob = std::move(sealed);
  return true;
}

// ---------------------------------------------------------------------------
// Eager loader corruption sweeps. The eager (heap) load path adopts
// compressed payloads verbatim and validates them fully
// (InvertedIndex::ValidateBlocks) before any cursor can read them, so
// every mutation must surface as Status::Corruption — never a crash, hang,
// or oversized allocation (the ASan+UBSan CI job runs these sweeps).
// ---------------------------------------------------------------------------

TEST(EagerCorruptionSweep, EveryByteFlipIsRejected) {
  const std::string blob = SaveSmallIndex();
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    InvertedIndex loaded;
    const Status s = LoadIndexFromString(mutated, &loaded);
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
}

TEST(EagerCorruptionSweep, EveryTruncationIsRejected) {
  const std::string blob = SaveSmallIndex();
  for (size_t len = 0; len < blob.size(); ++len) {
    std::string mutated = blob.substr(0, len);
    InvertedIndex loaded;
    const Status s = LoadIndexFromString(mutated, &loaded);
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
  }
}

TEST(ResealerTest, ResealingAnIntactBlobIsTheIdentity) {
  // The resealer must reproduce the writer's checksums exactly, or the
  // resealed tests below would only ever exercise the checksum checks.
  const std::string blob = SaveSmallIndex();
  std::string resealed = blob;
  ASSERT_TRUE(ResealV6(&resealed));
  EXPECT_EQ(resealed, blob);
  // A payload flip plus a reseal must get past both checksums. The byte
  // before the empty three-byte pair section and the trailer ends IL_ANY's
  // payload: a position delta, whose low bit changes a value but not the
  // structure, so the resealed blob loads.
  std::string mutated = blob;
  const size_t pos = mutated.size() - 8 - 3 - 1;
  mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
  InvertedIndex loaded;
  EXPECT_EQ(LoadIndexFromString(mutated, &loaded).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(ResealV6(&mutated));
  const Status s = LoadIndexFromString(mutated, &loaded);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

class ResealedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResealedFuzz, ResealedMutationsAreRejectedOrSane) {
  // The checksums are recomputable by an attacker; reseal them after each
  // mutation so the structural validators — skip-table checks, block
  // decode bounds, ValidateBlocks totals — do the rejecting. A mutation
  // that happens to stay structurally valid (e.g. a changed position
  // delta) may load, in which case queries must still run without
  // faulting. Both load modes run: eager loads validate every block up
  // front, lazy (mmap) loads only the directory, leaving block structure
  // to first touch.
  const std::string blob = SaveSmallIndex();
  const std::string path = ::testing::TempDir() + "/fts_resealed_fuzz.idx";
  auto scored_query = ParseQuery("'w0' OR 'w3'", SurfaceLanguage::kBool);
  ASSERT_TRUE(scored_query.ok());
  Rng rng(GetParam());
  int resealed_trials = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = blob;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      // Mutate anywhere between the magic and the trailer.
      const size_t body = mutated.size() - 16;
      const size_t pos = 8 + rng.Uniform(body);
      switch (rng.Uniform(4)) {
        case 0:
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 2:
          mutated[pos] = static_cast<char>(0xFF);  // max varint continuation
          break;
        default:
          mutated[pos] = 0;
          break;
      }
    }
    const bool resealed = ResealV6(&mutated);
    resealed_trials += resealed;
    // A resealed blob carries valid checksums, so whatever rejects it must
    // be a structural check.
    const auto expect_corruption = [resealed](const Status& s) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
      if (resealed) {
        EXPECT_EQ(s.message().find("checksum"), std::string::npos)
            << s.ToString();
      }
    };
    WriteFile(path, mutated);
    InvertedIndex eager, mapped;
    const Status eager_status = LoadIndexFromString(mutated, &eager);
    const Status mapped_status = LoadMapped(path, &mapped);
    for (const auto& [s, loaded] :
         {std::pair<Status, InvertedIndex*>{eager_status, &eager},
          std::pair<Status, InvertedIndex*>{mapped_status, &mapped}}) {
      if (!s.ok()) {
        expect_corruption(s);
        continue;
      }
      const Status touch = TouchEveryBlock(*loaded);
      if (!touch.ok()) expect_corruption(touch);
      QueryRouter router(loaded);
      (void)router.Evaluate("'w0' AND 'w1'");
      (void)router.Evaluate("'w1' OR NOT 'w2'");
      (void)router.EvaluateTopK("'w0' OR 'w3'", 5);
      // Scored evaluation indexes the per-node scalar tables by posting
      // node id, so it additionally proves the loader's node-range
      // validation (out-of-range ids would fault under ASan here).
      BoolEngine scored(loaded, ScoringKind::kTfIdf);
      (void)scored.Evaluate(*scored_query);
    }
  }
  std::remove(path.c_str());
  // Most mutations leave the layout walkable, so most trials really do
  // reach the structural validators.
  EXPECT_GT(resealed_trials, 200) << resealed_trials << " of 400 resealed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResealedFuzz, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// mmap first-touch corruption sweeps. A lazy (mmap) load verifies only
// the header/directory trailer checksum up front; every block payload byte
// is covered by a per-block checksum verified on the block's first decode.
// So EVERY single-byte flip must surface as Corruption — at load time when
// it lands in the header/directory/trailer, or at first decode when it
// lands in a payload — and truncations must all fail at load (the
// directory bounds every payload range). Never UB, a crash, or a silently
// wrong answer; the ASan+UBSan CI job runs this sweep exhaustively
// (FTS_MMAP_EXHAUSTIVE=1), other runs sample every 7th byte.
// ---------------------------------------------------------------------------

TEST(MmapFirstTouchSweep, EveryByteFlipSurfacesCorruption) {
  // Skip entries carry the block-max tf used for ranked early termination
  // and the per-block encoding tag: a flip in either must be caught by the
  // directory trailer checksum, never become a silently unsound score
  // bound or reinterpret a block under the wrong decoder.
  const std::string blob = SaveSmallIndex();
  const std::string path = ::testing::TempDir() + "/fts_mmap_flip_sweep.idx";
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    WriteFile(path, mutated);
    InvertedIndex loaded;
    Status s = LoadMapped(path, &loaded);
    if (s.ok()) {
      // The flip was in a payload the lazy load never read: it must be
      // caught by the flipped block's checksum on first touch, and
      // queries against the poisoned index must fail closed, not fault.
      s = TouchEveryBlock(loaded);
      QueryRouter router(&loaded);
      (void)router.Evaluate("'w0' AND 'w1'");
    }
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip never surfaced";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
  std::remove(path.c_str());
}

TEST(MmapFirstTouchSweep, EveryTruncationFailsAtLoad) {
  // Truncation cuts bytes off the end, which the lazy loader must notice
  // without reading payloads: the directory bounds every payload range and
  // the trailer checksum pins the directory itself.
  const std::string blob = SaveSmallIndex();
  const std::string path = ::testing::TempDir() + "/fts_mmap_trunc_sweep.idx";
  for (size_t len = 0; len < blob.size(); len += SweepStride()) {
    WriteFile(path, blob.substr(0, len));
    InvertedIndex loaded;
    const Status s = LoadMapped(path, &loaded);
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
  }
  std::remove(path.c_str());
}

class MmapPayloadFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MmapPayloadFuzz, RandomMultiByteDamageNeverFaultsLazyQueries) {
  // Random multi-byte damage (flips, 0xFF varint-continuation bytes,
  // zeroed bytes) across the whole body. Most damage is caught by the
  // trailer or per-block checksums; whatever happens — rejection at load,
  // Corruption at first decode, or (for damage confined to bytes no check
  // reads, e.g. inside a never-referenced range) a clean load — queries
  // must run without faulting, which the ASan+UBSan CI job proves. The
  // structural validators behind the checksums are separately exercised by
  // ResealedFuzz above.
  const std::string path = ::testing::TempDir() + "/fts_mmap_payload_fuzz.idx";
  Rng rng(GetParam());
  const std::string blob = SaveSmallIndex();
  for (int trial = 0; trial < 480; ++trial) {
    std::string mutated = blob;
    const size_t body = mutated.size() - 16;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = 8 + rng.Uniform(body);
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          mutated[pos] = static_cast<char>(0xFF);  // max varint continuation
          break;
        default:
          mutated[pos] = 0;
          break;
      }
    }
    WriteFile(path, mutated);
    InvertedIndex loaded;
    const Status s = LoadMapped(path, &loaded);
    if (s.ok()) {
      const Status touch = TouchEveryBlock(loaded);
      if (!touch.ok()) {
        EXPECT_EQ(touch.code(), StatusCode::kCorruption) << touch.ToString();
      }
      QueryRouter router(&loaded);
      (void)router.Evaluate("'w0' AND 'w1'");
      (void)router.Evaluate("'w1' OR NOT 'w2'");
      // Ranked evaluation drives the block-max early-termination path,
      // whose score bounds come from the skip directory — damaged maxima
      // must fail closed, never fault or hang.
      (void)router.EvaluateTopK("'w0' OR 'w3'", 5);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmapPayloadFuzz, ::testing::Values(4, 5));

// ---------------------------------------------------------------------------
// Dense-corpus sweep. The small corpora above carry mostly sparse varint
// blocks; this corpus is built so common tokens produce full 128-entry
// bitset blocks, putting the bitset decoder — base/nwords parse, word
// expansion, popcount/entry-count cross-checks, count/len stream tiling —
// directly in the blast path of every flip. Damage in the bitset words
// must surface at first touch; damage in the directory (including the
// per-block encoding tags) must surface at load.
// ---------------------------------------------------------------------------

std::string SaveDenseIndex() {
  CorpusGenOptions opts;
  opts.seed = 23;
  opts.num_nodes = 200;
  opts.min_doc_len = 6;
  opts.max_doc_len = 16;
  opts.vocabulary = 16;  // tiny vocabulary: every token lands in most docs
  opts.num_topic_tokens = 2;
  opts.topic_doc_fraction = 1.0;
  opts.topic_occurrences = 2;
  Corpus corpus = GenerateCorpus(opts);
  InvertedIndex index = IndexBuilder::Build(corpus);
  bool any_bitset = false;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    any_bitset |= index.block_list(t)->has_bitset_blocks();
  }
  EXPECT_TRUE(any_bitset) << "dense fuzz corpus produced no bitset blocks";
  std::string blob;
  SaveIndexToString(index, &blob);
  return blob;
}

TEST(DenseCorruptionSweep, EveryByteFlipSurfacesCorruption) {
  const std::string blob = SaveDenseIndex();
  const std::string path = ::testing::TempDir() + "/fts_dense_sweep.idx";
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    WriteFile(path, mutated);
    InvertedIndex loaded;
    Status s = LoadIndexFromFile(path, &loaded, mmap);
    if (s.ok()) {
      s = TouchEveryBlock(loaded);
      QueryRouter router(&loaded);
      (void)router.Evaluate("'topic0' AND 'topic1'");
    }
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip never surfaced";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
  std::remove(path.c_str());
}

TEST(DenseCorruptionSweep, RandomBitsetDamageIsRejectedOrSane) {
  // Random multi-byte damage across the body. Payload damage bypasses the
  // load-time trailer hash entirely (it covers only header + directory),
  // so the per-block checksum and the bitset structural validators do the
  // rejecting at first touch — and whatever loads must answer the dense
  // word-AND query without faulting, which is exactly the path that would
  // walk a poisoned bitset. (Structural rejection behind a deliberately
  // resealed per-block checksum is pinned by block_posting_list_test's
  // BitsetWordFlipRejectsEvenWithResealedChecksum.)
  const std::string blob = SaveDenseIndex();
  const std::string path = ::testing::TempDir() + "/fts_dense_damage.idx";
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = blob;
    const size_t body = mutated.size() - 16;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = 8 + rng.Uniform(body);
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.Uniform(8)));
          break;
        case 1:
          mutated[pos] = static_cast<char>(0xFF);
          break;
        default:
          mutated[pos] = 0;
          break;
      }
    }
    WriteFile(path, mutated);
    InvertedIndex loaded;
    const Status s = LoadIndexFromFile(path, &loaded, mmap);
    if (s.ok()) {
      const Status touch = TouchEveryBlock(loaded);
      if (!touch.ok()) {
        EXPECT_EQ(touch.code(), StatusCode::kCorruption) << touch.ToString();
      }
      QueryRouter router(&loaded);
      (void)router.Evaluate("'topic0' AND 'topic1'");
      (void)router.EvaluateTopK("'topic0' OR 'topic1'", 5);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v6 pair-section sweep. The pair lists reuse the block codec, so their
// payloads are per-block checksummed (first-touch under mmap) and the
// section's own header — max_distance, the frequent-term table, the
// delta-coded key table — is folded into the directory trailer hash. A
// flip anywhere in the file must therefore surface as Corruption: at load
// when it lands in header/directory/trailer bytes (including every pair
// structural invariant: key canonicalization, orientation, ordering), or
// at first decode when it lands in a pair payload. The index is built so
// the section is substantial (dense co-occurrences over a tiny
// vocabulary); the ASan+UBSan CI job runs this sweep exhaustively.
// ---------------------------------------------------------------------------

std::string SaveV6PairIndex() {
  CorpusGenOptions opts;
  opts.seed = 31;
  opts.num_nodes = 80;
  opts.min_doc_len = 6;
  opts.max_doc_len = 20;
  opts.vocabulary = 12;  // tiny vocabulary: pairs co-occur constantly
  Corpus corpus = GenerateCorpus(opts);
  IndexBuildOptions build;
  build.pairs.frequent_terms = 4;
  build.pairs.max_distance = 3;
  InvertedIndex index = IndexBuilder::Build(corpus, build);
  EXPECT_NE(index.pair_index(), nullptr);
  EXPECT_GT(index.pair_index()->num_keys(), 0u);
  std::string blob;
  SaveIndexToString(index, &blob);  // default format: v6
  return blob;
}

TEST(V6PairCorruptionSweep, EveryByteFlipSurfacesCorruption) {
  const std::string blob = SaveV6PairIndex();
  ASSERT_EQ(blob[6], '6');
  const std::string path = ::testing::TempDir() + "/fts_v6_pair_sweep.idx";
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    WriteFile(path, mutated);
    InvertedIndex loaded;
    Status s = LoadIndexFromFile(path, &loaded, mmap);
    if (s.ok()) {
      s = TouchEveryBlock(loaded);
      QueryRouter router(&loaded);
      (void)router.Evaluate("'w0' AND 'w1'");
    }
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip never surfaced";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
  std::remove(path.c_str());
}

TEST(V6PairCorruptionSweep, EveryTruncationFailsAtLoad) {
  const std::string blob = SaveV6PairIndex();
  const std::string path = ::testing::TempDir() + "/fts_v6_pair_trunc.idx";
  LoadOptions mmap;
  mmap.mode = LoadOptions::Mode::kMmap;
  for (size_t len = 0; len < blob.size(); len += SweepStride()) {
    WriteFile(path, blob.substr(0, len));
    InvertedIndex loaded;
    const Status s = LoadIndexFromFile(path, &loaded, mmap);
    ASSERT_FALSE(s.ok()) << "truncation to " << len << " accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
  }
  std::remove(path.c_str());
}

TEST(V6PairCorruptionSweep, EagerLoadRejectsEveryFlipUpFront) {
  // The eager (heap) load path validates every payload before returning,
  // pair lists included — no flip may survive to query time at all.
  const std::string blob = SaveV6PairIndex();
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    InvertedIndex loaded;
    const Status s = LoadIndexFromString(mutated, &loaded);
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
}

// ---------------------------------------------------------------------------
// Crafted files: surgical mutations and hand-assembled directories, each
// resealed so only the structural checks can reject them — in both load
// modes, since a lazy load validates block structure only on first touch.
// ---------------------------------------------------------------------------

/// Loads `blob` eagerly and from an mmap'd file; returns both statuses.
std::vector<Status> LoadBothModes(const std::string& blob) {
  const std::string path = ::testing::TempDir() + "/fts_crafted.idx";
  std::vector<Status> results;
  InvertedIndex eager, mapped;
  results.push_back(LoadIndexFromString(blob, &eager));
  WriteFile(path, blob);
  results.push_back(LoadMapped(path, &mapped));
  std::remove(path.c_str());
  return results;
}

TEST(CraftedFileTest, OutOfRangeNodeIdsAreRejected) {
  // Surgical mutation: shrink the node universe underneath the posting
  // lists. Corpus = { "" , "a" }, so every posting entry references node 1.
  // Rewriting cnodes 2 -> 1 and deleting node 1's scalar record (1-byte
  // unique_tokens varint + 8-byte norm) yields a parseable, checksum-valid
  // blob whose posting node ids are >= cnodes; scoring would index the
  // per-node tables out of range if the loader accepted it.
  Corpus corpus;
  corpus.AddDocument("");
  corpus.AddDocument("a");
  InvertedIndex index = IndexBuilder::Build(corpus);
  std::string blob;
  SaveIndexToString(index, &blob);
  // Layout after the 8-byte magic: cnodes (varint, value 2 = 1 byte), four
  // more 1-byte stat varints, three 8-byte stat doubles, then per-node
  // scalar records of 9 bytes each.
  const size_t cnodes_off = 8;
  const size_t node1_scalars_off = 8 + 5 + 3 * 8 + 9;
  ASSERT_EQ(blob[cnodes_off], 2);
  blob[cnodes_off] = 1;
  blob.erase(node1_scalars_off, 9);
  ASSERT_TRUE(ResealV6(&blob));
  for (const Status& s : LoadBothModes(blob)) {
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    // Pin the rejection reason: if the layout offsets above ever drift, the
    // blob would still be rejected, but for the wrong reason — catch that.
    EXPECT_NE(s.message().find("posting node id out of range"),
              std::string::npos)
        << s.ToString();
  }
}

/// Hand-assembles a v6 file: `cnodes` nodes, the one-token vocabulary
/// {"a"} whose list holds one varint block per entry of `nodes` (a single
/// entry with one position), an empty IL_ANY and an empty pair section.
/// The directory records `nodes` as the blocks' max_node values and
/// `offsets` (default: the true block starts) as their byte offsets, both
/// delta-coded with 32-bit wrap-around, exactly as a crafted file can.
/// Checksums and trailer come from ResealV6.
std::string AssembleV6(uint64_t cnodes, const std::vector<NodeId>& nodes,
                       std::vector<uint32_t> offsets = {}) {
  std::string payload;
  std::vector<uint32_t> starts;
  for (const NodeId node : nodes) {
    starts.push_back(static_cast<uint32_t>(payload.size()));
    PutVarint32(&payload, node);  // absolute first id
    PutVarint32(&payload, 1);     // position count
    PutVarint32(&payload, 3);     // position byte length
    payload.append(3, '\0');      // offset, sentence, paragraph deltas
  }
  if (offsets.empty()) offsets = starts;
  const auto put_double = [](std::string* out, double d) {
    char buf[8];
    std::memcpy(buf, &d, 8);
    out->append(buf, 8);
  };
  std::string blob("FTSIDX6\0", 8);
  PutVarint64(&blob, cnodes);
  PutVarint64(&blob, nodes.size());  // total positions
  for (int i = 0; i < 3; ++i) PutVarint32(&blob, 1);
  for (int i = 0; i < 3; ++i) put_double(&blob, 1.0);
  for (uint64_t n = 0; n < cnodes; ++n) {
    PutVarint32(&blob, 1);
    put_double(&blob, 1.0);
  }
  PutVarint64(&blob, 1);  // vocabulary {"a"}
  PutVarint64(&blob, 1);
  blob.append("a");
  PutVarint64(&blob, nodes.size());  // entries
  PutVarint64(&blob, nodes.size());  // positions
  PutVarint32(&blob, BlockPostingList::kDefaultBlockSize);
  PutVarint64(&blob, nodes.size());  // blocks
  NodeId prev_node = 0;
  uint32_t prev_off = 0;
  for (size_t b = 0; b < nodes.size(); ++b) {
    PutVarint32(&blob, nodes[b] - prev_node);
    PutVarint32(&blob, offsets[b] - prev_off);
    PutVarint32(&blob, 1);  // entry count
    PutVarint32(&blob, 0);  // checksum, filled in by the reseal
    PutVarint32(&blob, 1);  // max_tf
    PutVarint32(&blob, BlockPostingList::kEncodingVarint);
    prev_node = nodes[b];
    prev_off = offsets[b];
  }
  PutVarint64(&blob, payload.size());
  blob.append(payload);
  // IL_ANY: no entries, no blocks, no payload.
  PutVarint64(&blob, 0);
  PutVarint64(&blob, 0);
  PutVarint32(&blob, BlockPostingList::kDefaultBlockSize);
  PutVarint64(&blob, 0);
  PutVarint64(&blob, 0);
  blob.append(3, '\0');  // empty pair section
  blob.append(8, '\0');  // trailer
  EXPECT_TRUE(ResealV6(&blob));
  return blob;
}

TEST(CraftedFileTest, AssembledFileLoads) {
  // Control for the wrap-around cases below: the assembler's well-formed
  // output loads in both modes and every block decodes.
  const std::string blob = AssembleV6(32, {5, 9, 31});
  for (const Status& s : LoadBothModes(blob)) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(blob, &loaded).ok());
  EXPECT_EQ(loaded.block_list_for_text("a")->Materialize().num_entries(), 3u);
}

TEST(CraftedFileTest, WrappedSkipDirectoryDeltasAreRejected) {
  // Block 0 claims max_node 0xFFFFFFF0 and block 1's delta (0x20) wraps
  // the sum past 2^32 back to 0x10, below cnodes. Only the last block's
  // max_node is range-checked against cnodes, and block 0 is internally
  // consistent, so without a wrap check a lazy load accepts the file and
  // block 0 first-touch-decodes cleanly — handing scoring a node id far
  // past the per-node tables. The byte-offset deltas get the same check.
  auto scored_query = ParseQuery("'a'", SurfaceLanguage::kBool);
  ASSERT_TRUE(scored_query.ok());
  const std::vector<std::string> crafted = {
      AssembleV6(32, {0xFFFFFFF0u, 0x10}),
      // Block 2's offset delta wraps back to byte 5, inside block 1.
      AssembleV6(32, {1, 2, 3}, {0, 8, 5}),
  };
  const std::string path = ::testing::TempDir() + "/fts_wrapped_skip.idx";
  for (const std::string& blob : crafted) {
    for (const Status& s : LoadBothModes(blob)) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
      EXPECT_NE(s.message().find("non-increasing skip table"),
                std::string::npos)
          << s.ToString();
    }
    WriteFile(path, blob);
    InvertedIndex mapped;
    if (LoadMapped(path, &mapped).ok()) {
      // What the check prevents: scoring indexes the per-node tables with
      // every decoded id (an out-of-range read that ASan reports).
      BoolEngine scored(&mapped, ScoringKind::kTfIdf);
      (void)scored.Evaluate(*scored_query);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fts

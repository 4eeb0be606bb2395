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

#include "common/rng.h"
#include "common/varint.h"
#include "eval/bool_engine.h"
#include "eval/searcher.h"
#include "index/block_posting_list.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "index/index_snapshot.h"
#include "index/segment_merger.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "text/corpus.h"
#include "workload/corpus_gen.h"

#include "raw_postings.h"
#include "v8_reseal.h"

namespace fts {
namespace {

/// Evaluates `query` over `index` through the Searcher (ranked when
/// `top_k` > 0) and discards the outcome: the callers only require that a
/// damaged index fails closed instead of faulting.
void Drive(const InvertedIndex* index, std::string_view query, size_t top_k = 0) {
  ExecContext ctx;
  ctx.set_top_k(top_k);
  (void)Searcher(IndexSnapshot::ForIndex(index)).Search(query, ctx);
}

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
      Drive(&loaded, "'w0' AND 'w1'");
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

/// Streams one list through a cursor (the production read path), its
/// records as its lane count has them, and returns its first sticky decode
/// error.
Status DrainList(const BlockPostingList* list) {
  BlockListCursor cursor(list);
  while (cursor.NextEntry() != kInvalidNode) {
    if (list->lanes() == 2) {
      (void)cursor.GetRecords();
    } else {
      (void)cursor.GetPositions();
    }
    if (!cursor.status().ok()) break;
  }
  return cursor.status();
}

/// Every list of `index`: token lists, IL_ANY, and any pair lists.
std::vector<const BlockPostingList*> EveryList(const InvertedIndex& index) {
  std::vector<const BlockPostingList*> lists;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    lists.push_back(index.block_list(t));
  }
  lists.push_back(&index.block_any_list());
  if (const PairIndex* pairs = index.pair_index()) {
    for (size_t i = 0; i < pairs->num_keys(); ++i) lists.push_back(&pairs->list(i));
  }
  return lists;
}

/// Decodes every block and PosList of every list through cursors and
/// returns the first sticky decode error.
Status TouchEveryBlock(const InvertedIndex& index) {
  for (const BlockPostingList* list : EveryList(index)) {
    FTS_RETURN_IF_ERROR(DrainList(list));
  }
  return Status::OK();
}

/// The promise a verified block keeps, which the merger's verbatim copy of
/// position bytes rests on: every entry of every block that
/// DecodeBlockEntries accepts — token lists, IL_ANY and pair lists —
/// decodes with DecodePositionRun.
::testing::AssertionResult AcceptedBlocksDecodePositions(const InvertedIndex& index) {
  const std::vector<const BlockPostingList*> lists = EveryList(index);
  std::vector<BlockPostingList::EntryRef> entries;
  std::vector<PositionInfo> positions;
  std::vector<PairRecord> records;
  for (size_t l = 0; l < lists.size(); ++l) {
    for (size_t b = 0; b < lists[l]->num_blocks(); ++b) {
      if (!lists[l]->DecodeBlockEntries(b, &entries).ok()) continue;
      for (const BlockPostingList::EntryRef& e : entries) {
        const Status s =
            lists[l]->lanes() == 2
                ? lists[l]->DecodePositionRun({&e, 1}, &records, nullptr)
                : lists[l]->DecodePositions(e, &positions);
        if (!s.ok()) {
          return ::testing::AssertionFailure()
                 << "list " << l << " block " << b << " node " << e.header.node
                 << ": " << s.ToString();
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Eager loader corruption sweeps. The eager (heap) load path adopts
// compressed payloads verbatim and, like an mmap load, parses none of
// them: each block is validated on its first decode (checksum, entry
// structure, position framing), before any cursor reads its bytes. So
// every flip must surface as Status::Corruption — at load when it lands in
// the header, directory or trailer, at first decode when it lands in a
// payload — and every truncation at load; never a crash, hang, or
// oversized allocation (the ASan+UBSan CI job runs these sweeps).
// ---------------------------------------------------------------------------

TEST(EagerCorruptionSweep, EveryByteFlipIsRejected) {
  const std::string blob = SaveSmallIndex();
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    InvertedIndex loaded;
    Status s = LoadIndexFromString(mutated, &loaded);
    if (s.ok()) s = TouchEveryBlock(loaded);
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
  ASSERT_TRUE(ResealV8(&resealed));
  EXPECT_EQ(resealed, blob);
  // A payload flip plus a reseal must get past both checksums. The byte
  // before the empty three-byte pair section and the trailer ends IL_ANY's
  // payload: a position delta, whose low bit changes a value but not the
  // structure, so the resealed blob loads and every block decodes. Unsealed,
  // the flip fails its block's checksum at first decode.
  std::string mutated = blob;
  const size_t pos = mutated.size() - 8 - 3 - 1;
  mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
  InvertedIndex unsealed;
  ASSERT_TRUE(LoadIndexFromString(mutated, &unsealed).ok());
  EXPECT_EQ(TouchEveryBlock(unsealed).code(), StatusCode::kCorruption);
  ASSERT_TRUE(ResealV8(&mutated));
  InvertedIndex loaded;
  const Status s = LoadIndexFromString(mutated, &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(TouchEveryBlock(loaded).ok());
}

class ResealedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResealedFuzz, ResealedMutationsAreRejectedOrSane) {
  // The checksums are recomputable by an attacker; reseal them after each
  // mutation so the structural validators — skip-table checks, first-touch
  // entry structure and position framing, list position totals — do the
  // rejecting. A mutation that happens to stay structurally valid (e.g. a
  // changed position delta) may load, in which case queries must still
  // run without faulting. Both load modes run, and both parse only the
  // directory, leaving each block to its first decode — after which every
  // entry of an accepted block must decode its positions.
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
    const bool resealed = ResealV8(&mutated);
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
    if (mapped_status.ok()) {
      EXPECT_TRUE(AcceptedBlocksDecodePositions(mapped));
    }
    for (const auto& [s, loaded] :
         {std::pair<Status, InvertedIndex*>{eager_status, &eager},
          std::pair<Status, InvertedIndex*>{mapped_status, &mapped}}) {
      if (!s.ok()) {
        expect_corruption(s);
        continue;
      }
      const Status touch = TouchEveryBlock(*loaded);
      if (!touch.ok()) expect_corruption(touch);
      Drive(loaded, "'w0' AND 'w1'");
      Drive(loaded, "'w1' OR NOT 'w2'");
      Drive(loaded, "'w0' OR 'w3'", 5);
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
// is covered by a per-block checksum verified on the block's first decode
// (the same decode that validates an eager load's blocks).
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
      Drive(&loaded, "'w0' AND 'w1'");
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
      Drive(&loaded, "'w0' AND 'w1'");
      Drive(&loaded, "'w1' OR NOT 'w2'");
      // Ranked evaluation drives the block-max early-termination path,
      // whose score bounds come from the skip directory — damaged maxima
      // must fail closed, never fault or hang.
      Drive(&loaded, "'w0' OR 'w3'", 5);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmapPayloadFuzz, ::testing::Values(4, 5));

// ---------------------------------------------------------------------------
// Lazily validated segments beyond one query. MergeSegments copies
// position bytes verbatim into trusted in-memory lists, and decodes each
// block of a loaded input (its first touch, which validates it) before
// copying any of its bytes: every damaged payload fails
// the merge with Corruption, and damage no checksum sees (resealed) either
// fails it or leaves a merged index whose every block decodes. A snapshot
// computes its scoring stats on the first scored query, decoding every
// token list's entry headers: damage there fails that query (and every
// later one) with Corruption, never a crash.
// ---------------------------------------------------------------------------

std::shared_ptr<const InvertedIndex> OtherSegment() {
  CorpusGenOptions opts;
  opts.seed = 12;
  opts.num_nodes = 30;
  opts.min_doc_len = 5;
  opts.max_doc_len = 40;
  opts.vocabulary = 120;
  return std::make_shared<InvertedIndex>(IndexBuilder::Build(GenerateCorpus(opts)));
}

/// Whether decoding every token list's entry headers fails: the damage
/// sits where the snapshot's stats pass reads.
bool TokenListHeadersFail(const InvertedIndex& index) {
  std::vector<BlockPostingList::EntryRef> entries;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const BlockPostingList& list = *index.block_list(t);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      if (!list.DecodeBlockEntries(b, &entries).ok()) return true;
    }
  }
  return false;
}

TEST(LazySegmentCorruption, PayloadFlipsFailMergesAndScoredQueries) {
  const std::string blob = SaveSmallIndex();
  const std::shared_ptr<const InvertedIndex> other = OtherSegment();
  const std::string path = ::testing::TempDir() + "/fts_lazy_segment_flip.idx";
  size_t payload_flips = 0, failed_queries = 0;
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    WriteFile(path, mutated);
    auto mapped = std::make_shared<InvertedIndex>();
    if (!LoadMapped(path, mapped.get()).ok()) continue;  // caught at load
    ++payload_flips;
    const NodeId base = static_cast<NodeId>(other->num_nodes());
    const auto merged =
        MergeSegments({{other.get(), 0, nullptr}, {mapped.get(), base, nullptr}});
    ASSERT_FALSE(merged.ok()) << "byte " << pos << " flip merged";
    EXPECT_EQ(merged.status().code(), StatusCode::kCorruption) << "byte " << pos;

    // Fresh mappings: nothing verified yet.
    InvertedIndex probe;
    ASSERT_TRUE(LoadMapped(path, &probe).ok());
    const bool headers_fail = TokenListHeadersFail(probe);
    auto fresh = std::make_shared<InvertedIndex>();
    ASSERT_TRUE(LoadMapped(path, fresh.get()).ok());
    auto snapshot = IndexSnapshot::Create({other, fresh});
    ASSERT_TRUE(snapshot.ok()) << "creating a snapshot reads no list";
    for (int attempt = 0; attempt < 2; ++attempt) {
      ExecContext ctx;
      const auto r =
          Searcher(*snapshot, {ScoringKind::kTfIdf}).Search("'w0' OR 'w1'", ctx);
      if (headers_fail) {
        ASSERT_FALSE(r.ok()) << "byte " << pos << " flip scored";
        failed_queries += attempt == 0;
      }
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "byte " << pos;
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(payload_flips, 0u);
  EXPECT_GT(failed_queries, 0u);
}

/// Merge options that rebuild pair lists, which reads the merged index's
/// token streams back (IL_ANY plus every token list).
IndexBuildOptions MergeWithPairs() {
  IndexBuildOptions options;
  options.pairs.frequent_terms = 8;
  options.pairs.max_distance = 2;
  return options;
}

/// Random resealed damage to a mapped segment, merged with `options`:
/// every merge either fails with Corruption or yields lists that decode.
void ResealedDamageSweep(const IndexBuildOptions& options, const std::string& path) {
  const std::string blob = SaveSmallIndex();
  Rng rng(17);
  size_t rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    const size_t pos = 8 + rng.Uniform(mutated.size() - 16);
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    if (!ResealV8(&mutated)) continue;
    WriteFile(path, mutated);
    InvertedIndex mapped;
    if (!LoadMapped(path, &mapped).ok()) continue;
    const auto merged = MergeSegments({{&mapped, 0, nullptr}}, options);
    EXPECT_TRUE(AcceptedBlocksDecodePositions(mapped)) << "byte " << pos;
    if (!merged.ok()) {
      EXPECT_EQ(merged.status().code(), StatusCode::kCorruption)
          << merged.status().ToString();
      ++rejected;
      continue;
    }
    const Status touch = TouchEveryBlock(*merged);
    EXPECT_TRUE(touch.ok()) << "byte " << pos << ": " << touch.ToString();
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);
}

TEST(LazySegmentCorruption, ResealedDamageNeverReachesAMergedList) {
  ResealedDamageSweep({}, ::testing::TempDir() + "/fts_lazy_segment_resealed.idx");
}

TEST(LazySegmentCorruption, ResealedDamageNeverReachesAMergedPairList) {
  ResealedDamageSweep(MergeWithPairs(),
                      ::testing::TempDir() + "/fts_lazy_segment_resealed_pairs.idx");
}

/// Whether some node's IL_ANY holds a position that no token list names,
/// while every token position is in IL_ANY: block checks cannot see that
/// the lists stopped tiling IL_ANY.
bool AnyPositionWithoutToken(const InvertedIndex& index) {
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  std::vector<std::vector<uint32_t>> any(index.num_nodes()), named(index.num_nodes());
  auto collect = [&](const BlockPostingList& list,
                     std::vector<std::vector<uint32_t>>* out) {
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      if (!list.DecodeBlock(b, &entries, &positions).ok()) return false;
      for (const PostingEntry& e : entries) {
        for (uint32_t i = 0; i < e.pos_count; ++i) {
          (*out)[e.node].push_back(positions[e.pos_begin + i].offset);
        }
      }
    }
    return true;
  };
  if (!collect(index.block_any_list(), &any)) return false;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    if (!collect(*index.block_list(t), &named)) return false;
  }
  bool uncovered = false;
  for (NodeId n = 0; n < index.num_nodes(); ++n) {
    std::sort(named[n].begin(), named[n].end());
    named[n].erase(std::unique(named[n].begin(), named[n].end()), named[n].end());
    for (uint32_t offset : named[n]) {
      if (std::find(any[n].begin(), any[n].end(), offset) == any[n].end()) return false;
    }
    uncovered |= named[n].size() < any[n].size();
  }
  return uncovered;
}

TEST(LazySegmentCorruption, IlAnyPositionWithoutATokenFailsAPairMerge) {
  // Crafted, not random: small edits that survive every block check but
  // leave an IL_ANY position no token names (e.g. one token's offset
  // moved onto another's). Rebuilding pair lists must reject them.
  Corpus corpus;
  corpus.AddTokens({"a", "b", "c"});
  corpus.AddTokens({"b", "c", "a", "d"});
  corpus.AddTokens({"c", "a"});
  std::string blob;
  SaveIndexToString(IndexBuilder::Build(corpus), &blob);
  const std::string path = ::testing::TempDir() + "/fts_lazy_segment_il_any.idx";
  size_t crafted = 0;
  for (size_t pos = 8; pos + 8 < blob.size(); ++pos) {
    for (int delta : {-1, 1}) {
      std::string mutated = blob;
      mutated[pos] = static_cast<char>(mutated[pos] + delta);
      if (!ResealV8(&mutated)) continue;
      InvertedIndex eager;
      if (!LoadIndexFromString(mutated, &eager).ok()) continue;
      if (!AnyPositionWithoutToken(eager)) continue;
      ++crafted;
      const auto from_eager = MergeSegments({{&eager, 0, nullptr}}, MergeWithPairs());
      ASSERT_FALSE(from_eager.ok()) << "byte " << pos << " merged";
      EXPECT_EQ(from_eager.status().code(), StatusCode::kCorruption);
      WriteFile(path, mutated);
      InvertedIndex mapped;
      ASSERT_TRUE(LoadMapped(path, &mapped).ok());
      const auto from_mapped = MergeSegments({{&mapped, 0, nullptr}}, MergeWithPairs());
      ASSERT_FALSE(from_mapped.ok()) << "byte " << pos << " merged";
      EXPECT_EQ(from_mapped.status().code(), StatusCode::kCorruption);
      // Without pair lists the merge never reads the token streams; it
      // copies what the checks accepted.
      EXPECT_TRUE(MergeSegments({{&mapped, 0, nullptr}}).ok());
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(crafted, 0u);
}

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
      Drive(&loaded, "'topic0' AND 'topic1'");
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
      Drive(&loaded, "'topic0' AND 'topic1'");
      Drive(&loaded, "'topic0' OR 'topic1'", 5);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v8 pair-section sweep. The pair lists reuse the block codec, so their
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

std::string SaveV8PairIndex() {
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
  SaveIndexToString(index, &blob);  // default format: v8
  return blob;
}

TEST(V8PairCorruptionSweep, EveryByteFlipSurfacesCorruption) {
  const std::string blob = SaveV8PairIndex();
  ASSERT_EQ(blob[6], '8');
  const std::string path = ::testing::TempDir() + "/fts_v8_pair_sweep.idx";
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
      Drive(&loaded, "'w0' AND 'w1'");
    }
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip never surfaced";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
  std::remove(path.c_str());
}

TEST(V8PairCorruptionSweep, EveryTruncationFailsAtLoad) {
  const std::string blob = SaveV8PairIndex();
  const std::string path = ::testing::TempDir() + "/fts_v8_pair_trunc.idx";
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

TEST(V8PairCorruptionSweep, EagerLoadSurfacesEveryFlip) {
  // The eager (heap) load validates its blocks as the mmap load does, on
  // first decode, pair lists included: every flip surfaces at load or
  // before any cursor reads the flipped block's bytes.
  const std::string blob = SaveV8PairIndex();
  for (size_t pos = 0; pos < blob.size(); pos += SweepStride()) {
    std::string mutated = blob;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << (pos % 8)));
    InvertedIndex loaded;
    Status s = LoadIndexFromString(mutated, &loaded);
    if (s.ok()) s = TouchEveryBlock(loaded);
    ASSERT_FALSE(s.ok()) << "byte " << pos << " flip accepted";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
  }
}

// ---------------------------------------------------------------------------
// Crafted files: surgical mutations and hand-assembled directories, each
// resealed so only the structural checks can reject them — in both load
// modes, since a lazy load validates block structure only on first touch.
// ---------------------------------------------------------------------------

/// Loads `blob` from a string and from a file in both load modes (read
/// and mmap'd); returns the three statuses.
std::vector<Status> LoadBothModes(const std::string& blob) {
  const std::string path = ::testing::TempDir() + "/fts_crafted.idx";
  std::vector<Status> results;
  InvertedIndex from_string, read, mapped;
  results.push_back(LoadIndexFromString(blob, &from_string));
  WriteFile(path, blob);
  results.push_back(LoadIndexFromFile(path, &read));
  results.push_back(LoadMapped(path, &mapped));
  std::remove(path.c_str());
  return results;
}

TEST(CraftedFileTest, SectionsRunningIntoTheTrailerAreRejected) {
  // Short files whose last section runs into the 8-byte trailer. Each
  // section is parsed from the body alone, so it reads as truncated; a
  // parse over the whole input let `offset` pass the body's end, where the
  // remaining-input bound (body end - offset) wrapped and admitted any
  // count, and the count's allocation threw instead of failing closed.
  const auto stats = [](uint64_t cnodes) {
    std::string blob("FTSIDX8\0", 8);
    PutVarint64(&blob, cnodes);
    blob.append(4, '\0');   // total positions and three varint32 stats
    blob.append(24, '\0');  // three double stats
    return blob;
  };
  // The run table of no node: a one-entry zero directory.
  const auto no_runs = [](std::string* blob) {
    PutVarint64(blob, 4);
    blob->append(4, '\0');
  };
  // An empty list directory: one lane, no entries, no positions, the
  // default block size, no blocks, no payload.
  const auto empty_list = [](std::string* blob) {
    PutVarint32(blob, 1);
    PutVarint64(blob, 0);
    PutVarint64(blob, 0);
    PutVarint32(blob, BlockPostingList::kDefaultBlockSize);
    PutVarint64(blob, 0);
    PutVarint64(blob, 0);
  };
  constexpr uint64_t kHuge = uint64_t{1} << 60;  // a 9-byte varint
  std::vector<std::string> crafted;
  // Node counts: the node scalars' bound (45 and 42 bytes).
  crafted.push_back(stats(kHuge));
  crafted.push_back(stats(uint64_t{1} << 40));
  ASSERT_EQ(crafted[0].size(), 45u);
  ASSERT_EQ(crafted[1].size(), 42u);
  // The run table's size.
  std::string blob = stats(0);
  PutVarint64(&blob, kHuge);
  crafted.push_back(blob);
  // The vocabulary's bound.
  blob = stats(0);
  no_runs(&blob);
  PutVarint64(&blob, kHuge);
  crafted.push_back(blob);
  // The pair frequent table's bound: no tokens, an empty IL_ANY, then
  // max_distance 0 and the count.
  blob = stats(0);
  no_runs(&blob);
  PutVarint64(&blob, 0);
  empty_list(&blob);
  PutVarint32(&blob, 0);
  PutVarint64(&blob, kHuge);
  crafted.push_back(blob);
  // The pair key table's bound: the vocabulary {"a"} with an empty list,
  // an empty IL_ANY, max_distance 1, the frequent table {0}, then the count.
  blob = stats(0);
  no_runs(&blob);
  PutVarint64(&blob, 1);
  PutVarint64(&blob, 1);
  blob.append("a");
  empty_list(&blob);
  empty_list(&blob);
  PutVarint32(&blob, 1);
  PutVarint64(&blob, 1);
  PutVarint32(&blob, 0);
  PutVarint64(&blob, kHuge);
  crafted.push_back(blob);
  for (size_t i = 0; i < crafted.size(); ++i) {
    for (const Status& s : LoadBothModes(crafted[i])) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << i << ": " << s.ToString();
    }
  }
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
  // scalar records of 9 bytes each, then the run table: its size (15),
  // the directory {0, 0, 3} and node 1's one 3-byte run, which becomes
  // the one-node table {0, 0}.
  const size_t cnodes_off = 8;
  const size_t node1_scalars_off = 8 + 5 + 3 * 8 + 9;
  ASSERT_EQ(blob[cnodes_off], 2);
  blob[cnodes_off] = 1;
  blob.erase(node1_scalars_off, 9);
  ASSERT_EQ(blob[node1_scalars_off], 15);
  blob.replace(node1_scalars_off, 16, std::string("\x08", 1) + std::string(8, '\0'));
  ASSERT_TRUE(ResealV8(&blob));
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

/// Where the run table of a saved file lies: its size varint at
/// `size_at`, its bytes at [begin, begin + size), and its node count.
struct RunTableSection {
  size_t size_at = 0;
  size_t begin = 0;
  uint64_t size = 0;
  uint64_t cnodes = 0;
};

/// Walks the statistics and per-node scalars of a saved file (the
/// layout of docs/index_format.md) to its run table.
RunTableSection FindRunTable(std::string_view blob) {
  RunTableSection t;
  size_t off = 8;
  uint64_t skipped;
  EXPECT_TRUE(GetVarint64(blob, &off, &t.cnodes).ok());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(GetVarint64(blob, &off, &skipped).ok());
  off += 24;  // three double stats
  for (uint64_t n = 0; n < t.cnodes; ++n) {
    EXPECT_TRUE(GetVarint64(blob, &off, &skipped).ok());
    off += 8;
  }
  t.size_at = off;
  EXPECT_TRUE(GetVarint64(blob, &off, &t.size).ok());
  t.begin = off;
  return t;
}

TEST(CraftedFileTest, RunTableDamageIsRejected) {
  // The run table is validated in full at load, from a string, a read
  // file and a mapped file alike: a directory entry past the records,
  // a run whose offset does not increase and a size running into the
  // trailer are structural errors even resealed, and an unsealed flip of
  // a well-formed run is the trailer checksum's.
  Corpus corpus;
  corpus.AddDocument("a b. c d.\n\ne f. g");
  corpus.AddDocument("");
  corpus.AddDocument("h. i j.\n\nk");
  InvertedIndex index = IndexBuilder::Build(corpus);
  std::string base;
  SaveIndexToString(index, &base);
  const RunTableSection t = FindRunTable(base);
  ASSERT_EQ(t.cnodes, 3u);
  ASSERT_EQ(t.size, index.run_table().bytes().size());
  ASSERT_EQ(base.substr(t.begin, t.size), index.run_table().bytes());
  const size_t records = t.begin + 4 * (t.cnodes + 1);
  // Node 0's runs, four one-byte triples: (0, 0, 0), (2, 1, 0), (2, 1, 1)
  // and (2, 1, 0).
  ASSERT_EQ(LoadFixed32Le(base.data() + t.begin + 4), 12u);
  ASSERT_EQ(base.substr(records, 6), std::string("\0\0\0\x02\x01\0", 6));

  struct Case {
    std::string what;
    std::string blob;
    std::string error;
  };
  std::vector<Case> cases;
  std::string blob = base;
  blob[t.begin + 4] = '\x7f';  // node 0 ends past the records
  EXPECT_TRUE(ResealV8(&blob));
  cases.push_back({"directory entry out of range", blob,
                   "run table directory entry out of range"});
  blob = base;
  blob[records + 3] = '\0';  // node 0's second run starts where its first does
  EXPECT_TRUE(ResealV8(&blob));
  cases.push_back({"offsets not increasing", blob, "run offsets not increasing"});
  blob = base;
  std::string size;
  PutVarint64(&size, base.size() - t.begin);  // through the trailer
  blob.replace(t.size_at, t.begin - t.size_at, size);
  cases.push_back({"into the trailer", blob, "run table runs into the trailer"});
  blob = base;
  blob[records + 5] = '\x02';  // a well-formed run, the trailer not resealed
  cases.push_back({"checksum", blob, "index header checksum mismatch"});
  for (const Case& c : cases) {
    for (const Status& s : LoadBothModes(c.blob)) {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << c.what << ": " << s.ToString();
      EXPECT_NE(s.message().find(c.error), std::string::npos)
          << c.what << ": " << s.ToString();
    }
  }
}

/// Hand-assembles a v8 file: `cnodes` nodes with no runs, the one-token
/// vocabulary {"a"} whose list holds one varint block per entry of `nodes`
/// (a single entry with one position), an empty IL_ANY and an empty pair
/// section.
/// The directory records `nodes` as the blocks' max_node values and
/// `offsets` (default: the true block starts) as their byte offsets, both
/// delta-coded with 32-bit wrap-around, exactly as a crafted file can.
/// Checksums and trailer come from ResealV8.
std::string AssembleV8(uint64_t cnodes, const std::vector<NodeId>& nodes,
                       std::vector<uint32_t> offsets = {}) {
  std::string payload;
  std::vector<uint32_t> starts;
  for (const NodeId node : nodes) {
    starts.push_back(static_cast<uint32_t>(payload.size()));
    PutVarint32(&payload, node);  // absolute first id
    PutVarint32(&payload, 1);     // position count
    PutVarint32(&payload, 1);     // position byte length
    payload.append(1, '\0');      // offset delta
  }
  if (offsets.empty()) offsets = starts;
  const auto put_double = [](std::string* out, double d) {
    char buf[8];
    std::memcpy(buf, &d, 8);
    out->append(buf, 8);
  };
  std::string blob("FTSIDX8\0", 8);
  PutVarint64(&blob, cnodes);
  PutVarint64(&blob, nodes.size());  // total positions
  for (int i = 0; i < 3; ++i) PutVarint32(&blob, 1);
  for (int i = 0; i < 3; ++i) put_double(&blob, 1.0);
  for (uint64_t n = 0; n < cnodes; ++n) {
    PutVarint32(&blob, 1);
    put_double(&blob, 1.0);
  }
  PutVarint64(&blob, 4 * (cnodes + 1));  // run table: a zero directory
  blob.append(4 * (cnodes + 1), '\0');
  PutVarint64(&blob, 1);  // vocabulary {"a"}
  PutVarint64(&blob, 1);
  blob.append("a");
  PutVarint32(&blob, 1);             // lanes
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
  // IL_ANY: one lane, no entries, no blocks, no payload.
  PutVarint32(&blob, 1);
  PutVarint64(&blob, 0);
  PutVarint64(&blob, 0);
  PutVarint32(&blob, BlockPostingList::kDefaultBlockSize);
  PutVarint64(&blob, 0);
  PutVarint64(&blob, 0);
  blob.append(3, '\0');  // empty pair section
  blob.append(8, '\0');  // trailer
  EXPECT_TRUE(ResealV8(&blob));
  return blob;
}

TEST(CraftedFileTest, AssembledFileLoads) {
  // Control for the wrap-around cases below: the assembler's well-formed
  // output loads in both modes and every block decodes.
  const std::string blob = AssembleV8(32, {5, 9, 31});
  for (const Status& s : LoadBothModes(blob)) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  InvertedIndex loaded;
  ASSERT_TRUE(LoadIndexFromString(blob, &loaded).ok());
  EXPECT_EQ(Materialize(*loaded.block_list_for_text("a")).num_entries(), 3u);
}

TEST(CraftedFileTest, DuplicateFrequentTermIsRejected) {
  // The assembled file's empty pair section, replaced by max_distance 1
  // and a frequent table naming token 0 once (control) or twice.
  const std::string base = AssembleV8(32, {5, 9, 31});
  const size_t section = base.size() - 8 - 3;
  for (const bool duplicate : {false, true}) {
    std::string blob = base;
    std::string pairs = duplicate ? std::string("\x01\x02\x00\x00\x00", 5)
                                  : std::string("\x01\x01\x00\x00", 4);
    blob.replace(section, 3, pairs);
    ASSERT_TRUE(ResealV8(&blob));
    for (const Status& s : LoadBothModes(blob)) {
      if (!duplicate) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        continue;
      }
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
      EXPECT_NE(s.message().find("duplicate pair frequent token"),
                std::string::npos)
          << s.ToString();
    }
  }
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
      AssembleV8(32, {0xFFFFFFF0u, 0x10}),
      // Block 2's offset delta wraps back to byte 5, inside block 1.
      AssembleV8(32, {1, 2, 3}, {0, 8, 5}),
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

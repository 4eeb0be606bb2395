#include "index/index_io.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/varint.h"
#include "index/block_posting_list.h"
#include "index/index_source.h"
#include "index/pair_index.h"

namespace fts {

namespace {

constexpr char kMagic[8] = {'F', 'T', 'S', 'I', 'D', 'X', '6', '\0'};
constexpr size_t kMagicSize = sizeof(kMagic);
/// Byte of the magic that holds the format version digit.
constexpr size_t kVersionByte = 6;
constexpr size_t kTrailerSize = 8;  // fixed64 checksum
/// The smallest byte count a file can occupy: magic + trailer. Inputs
/// below this are rejected before any section parsing runs.
constexpr size_t kMinFileSize = kMagicSize + kTrailerSize;

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Status GetFixed64(std::string_view data, size_t* offset, uint64_t* v) {
  if (*offset + 8 > data.size()) {
    return Status::Corruption("truncated fixed64 at offset " + std::to_string(*offset));
  }
  std::memcpy(v, data.data() + *offset, 8);
  *offset += 8;
  return Status::OK();
}

void PutDouble(std::string* out, double d) {
  PutFixed64(out, std::bit_cast<uint64_t>(d));
}

Status GetDouble(std::string_view data, size_t* offset, double* d) {
  uint64_t bits;
  FTS_RETURN_IF_ERROR(GetFixed64(data, offset, &bits));
  *d = std::bit_cast<double>(bits);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Posting lists: the BlockPostingList skip directory, each entry extended
// with the block's FNV-1a32 payload checksum, its max_tf (largest
// per-entry position count, the block-max statistic top-k evaluation turns
// into impact upper bounds) and its encoding tag (varint-delta vs
// fixed-width bitset), then the payload dumped verbatim from / adopted
// verbatim into BlockPostingList. The trailer hash hops over payloads.
// ---------------------------------------------------------------------------

/// Byte range of one list's payload within the serialized output.
struct PayloadRange {
  size_t begin = 0;
  size_t end = 0;
};

void PutBlockPostingList(std::string* out, const BlockPostingList& list,
                         std::vector<PayloadRange>* payload_ranges) {
  PutVarint64(out, list.num_entries());
  PutVarint64(out, list.total_positions());
  PutVarint32(out, list.block_size());
  PutVarint64(out, list.num_blocks());
  const std::string_view payload = list.data();
  NodeId prev_max = 0;
  uint32_t prev_off = 0;
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    const BlockPostingList::SkipEntry& s = list.skip(b);
    PutVarint32(out, s.max_node - prev_max);
    PutVarint32(out, s.byte_offset - prev_off);
    PutVarint32(out, s.entry_count);
    const size_t end = b + 1 < list.num_blocks() ? list.skip(b + 1).byte_offset
                                                 : payload.size();
    PutVarint32(out, Fnv1a32(payload.substr(s.byte_offset, end - s.byte_offset)));
    PutVarint32(out, s.max_tf);
    // The encoding tag lives in the directory, so the trailer hash covers
    // it: a flipped tag is Corruption at load, never a block parsed under
    // the wrong layout.
    PutVarint32(out, s.encoding);
    prev_max = s.max_node;
    prev_off = s.byte_offset;
  }
  PutVarint64(out, payload.size());
  payload_ranges->push_back({out->size(), out->size() + payload.size()});
  out->append(payload);
}

/// Parsed directory of one serialized block list; the payload is left in
/// place (only its range is recorded).
struct BlockListDirectory {
  uint64_t num_entries = 0;
  uint64_t total_positions = 0;
  uint32_t block_size = 0;
  std::vector<BlockPostingList::SkipEntry> skips;
  std::vector<uint32_t> checksums;
  size_t payload_begin = 0;
  size_t payload_size = 0;
};

/// Parses one list's directory and skips its payload, leaving `*offset`
/// past the list. Every count is bounded by the remaining input before
/// sizing containers: the trailer hash is recomputable by an attacker, so
/// a crafted header must fail with Corruption, not a giant allocation.
Status GetBlockListDirectory(std::string_view data, size_t* offset,
                             uint64_t cnodes, BlockListDirectory* dir) {
  uint64_t num_blocks;
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &dir->num_entries));
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &dir->total_positions));
  FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &dir->block_size));
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &num_blocks));
  if (dir->block_size == 0 && num_blocks > 0) {
    return Status::Corruption("zero block size in nonempty block list");
  }
  // Each skip entry takes at least 6 bytes (six varints).
  if (num_blocks > (data.size() - *offset) / 6) {
    return Status::Corruption("skip table larger than remaining input");
  }
  dir->skips.reserve(num_blocks);
  dir->checksums.reserve(num_blocks);
  NodeId prev_max = 0;
  uint32_t prev_off = 0;
  uint64_t skipped_entries = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    uint32_t d_max, d_off, count, checksum, encoding;
    BlockPostingList::SkipEntry s;
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &d_max));
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &d_off));
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &count));
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &checksum));
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &s.max_tf));
    FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &encoding));
    if (encoding > BlockPostingList::kEncodingBitset) {
      return Status::Corruption("unknown block encoding tag");
    }
    // Deltas are summed in 64 bits: a delta that wraps past 2^32 would
    // hand a lazily validated block a max_node far above its successors',
    // and only the last block's max_node is range-checked below.
    const uint64_t max_node = uint64_t{prev_max} + d_max;
    const uint64_t byte_offset = uint64_t{prev_off} + d_off;
    if ((b > 0 && (d_max == 0 || d_off == 0)) || max_node > UINT32_MAX ||
        byte_offset > UINT32_MAX) {
      return Status::Corruption("non-increasing skip table");
    }
    s.max_node = static_cast<NodeId>(max_node);
    s.byte_offset = static_cast<uint32_t>(byte_offset);
    s.entry_count = count;
    s.encoding = static_cast<uint8_t>(encoding);
    if (count == 0 || count > dir->block_size) {
      return Status::Corruption("bad block entry count");
    }
    prev_max = s.max_node;
    prev_off = s.byte_offset;
    skipped_entries += count;
    dir->skips.push_back(s);
    dir->checksums.push_back(checksum);
  }
  if (skipped_entries != dir->num_entries) {
    return Status::Corruption("skip table entry counts disagree with header");
  }
  // Every node id in a valid block is <= its skip max_node, so checking the
  // last block's max here guarantees the ids stay below cnodes (they index
  // the per-node scalar tables during scoring) even when the block bodies
  // are only validated lazily on first touch.
  if (!dir->skips.empty() && dir->skips.back().max_node >= cnodes) {
    return Status::Corruption("posting node id out of range");
  }
  uint64_t data_size;
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &data_size));
  if (data_size > data.size() - *offset) {  // subtract, don't add: no overflow
    return Status::Corruption("truncated block payload");
  }
  if (!dir->skips.empty() && dir->skips.back().byte_offset >= data_size) {
    return Status::Corruption("skip table points past block payload");
  }
  dir->payload_begin = *offset;
  dir->payload_size = data_size;
  *offset += data_size;
  return Status::OK();
}

void PutCommonSections(const InvertedIndex& index, std::string* out) {
  // Statistics.
  const IndexStats& s = index.stats();
  PutVarint64(out, s.cnodes);
  PutVarint64(out, s.total_positions);
  PutVarint32(out, s.pos_per_cnode);
  PutVarint32(out, s.entries_per_token);
  PutVarint32(out, s.pos_per_entry);
  PutDouble(out, s.avg_pos_per_cnode);
  PutDouble(out, s.avg_entries_per_token);
  PutDouble(out, s.avg_pos_per_entry);

  // Per-node scalars.
  for (NodeId n = 0; n < s.cnodes; ++n) {
    PutVarint32(out, index.unique_tokens(n));
    PutDouble(out, index.node_norm(n));
  }

  // Dictionary.
  PutVarint64(out, index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const std::string& text = index.token_text(t);
    PutVarint64(out, text.size());
    out->append(text);
  }
}

}  // namespace

// Loader backdoor into InvertedIndex privates (declared friend there); all
// deserialization paths funnel through Load().
struct IndexIoAccess {
  static Status Load(std::shared_ptr<IndexSource> source, bool prefer_lazy,
                     InvertedIndex* out);
};

Status IndexIoAccess::Load(std::shared_ptr<IndexSource> source,
                           bool prefer_lazy, InvertedIndex* out) {
  const std::string_view data = source->view();
  if (data.size() < kMinFileSize) {
    return Status::Corruption("index data smaller than the fixed envelope (" +
                              std::to_string(data.size()) + " < " +
                              std::to_string(kMinFileSize) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
    const char version = data[kVersionByte];
    if (std::memcmp(data.data(), kMagic, kVersionByte) == 0 &&
        data[kVersionByte + 1] == '\0' && version >= '1' && version <= '5') {
      // A retired format: fail closed with a message that says what to do,
      // rather than the generic bad-magic error.
      return Status::Corruption(std::string("index format v") + version +
                                " is no longer supported; rebuild the "
                                "index to write the current v6 format");
    }
    return Status::Corruption("bad index magic");
  }
  const size_t body_end = data.size() - kTrailerSize;

  // The trailer covers only header/directory bytes; it is accumulated
  // during the parse below, hopping over payload ranges without touching
  // them.
  uint64_t header_hash = kFnv1aSeed;
  size_t hash_mark = kMagicSize;  // next byte not yet folded into header_hash

  InvertedIndex index;
  size_t offset = kMagicSize;
  IndexStats& s = index.stats_;
  FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &s.cnodes));
  FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &s.total_positions));
  FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &s.pos_per_cnode));
  FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &s.entries_per_token));
  FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &s.pos_per_entry));
  FTS_RETURN_IF_ERROR(GetDouble(data, &offset, &s.avg_pos_per_cnode));
  FTS_RETURN_IF_ERROR(GetDouble(data, &offset, &s.avg_entries_per_token));
  FTS_RETURN_IF_ERROR(GetDouble(data, &offset, &s.avg_pos_per_entry));

  // Bound every count read from the file by the bytes that could encode it
  // before sizing containers: the checksum is recomputable by an attacker,
  // so a crafted header must fail with Corruption, not a giant allocation.
  if (s.cnodes > (body_end - offset) / 9) {  // >= 1 varint + 8-byte double each
    return Status::Corruption("node count larger than remaining input");
  }
  index.unique_tokens_.resize(s.cnodes);
  index.node_norms_.resize(s.cnodes);
  for (uint64_t n = 0; n < s.cnodes; ++n) {
    FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &index.unique_tokens_[n]));
    FTS_RETURN_IF_ERROR(GetDouble(data, &offset, &index.node_norms_[n]));
  }

  uint64_t vocab;
  FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &vocab));
  if (vocab > body_end - offset) {  // >= 1 length byte per token
    return Status::Corruption("vocabulary larger than remaining input");
  }
  index.token_texts_.reserve(vocab);
  for (uint64_t t = 0; t < vocab; ++t) {
    uint64_t len;
    FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &len));
    if (len > body_end - offset) {  // subtract, don't add: no overflow
      return Status::Corruption("truncated dictionary string");
    }
    index.token_texts_.emplace_back(data.substr(offset, len));
    index.token_ids_.emplace(index.token_texts_.back(), static_cast<TokenId>(t));
    offset += len;
  }

  const auto adopt = [&](BlockPostingList* list) -> Status {
    BlockListDirectory dir;
    FTS_RETURN_IF_ERROR(GetBlockListDirectory(data, &offset, s.cnodes, &dir));
    // Fold the header/directory bytes since the last payload into the
    // trailer hash, then hop over this list's payload untouched.
    header_hash = Fnv1aAccumulate(
        header_hash, data.substr(hash_mark, dir.payload_begin - hash_mark));
    hash_mark = dir.payload_begin + dir.payload_size;
    *list = BlockPostingList::FromParts(
        dir.block_size == 0 ? BlockPostingList::kDefaultBlockSize
                            : dir.block_size,
        dir.num_entries, dir.total_positions, std::move(dir.skips),
        data.substr(dir.payload_begin, dir.payload_size),
        std::move(dir.checksums));
    return Status::OK();
  };
  index.block_lists_.resize(vocab);
  for (uint64_t t = 0; t < vocab; ++t) {
    FTS_RETURN_IF_ERROR(adopt(&index.block_lists_[t]));
  }
  FTS_RETURN_IF_ERROR(adopt(index.block_any_list_.get()));

  // Pair-index section: frequent-term table (rank order), then the sorted
  // canonical key table with each key's list inline. Every structural
  // invariant Find()/the planner rely on is enforced here; the lists
  // themselves get the same directory checks and (lazy or eager) payload
  // validation as any other list.
  uint32_t max_distance;
  uint64_t num_frequent;
  FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &max_distance));
  FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &num_frequent));
  if (num_frequent > body_end - offset) {  // >= 1 byte per id
    return Status::Corruption("pair frequent table larger than input");
  }
  auto pair = std::make_unique<PairIndex>();
  pair->max_distance_ = max_distance;
  pair->frequent_.reserve(num_frequent);
  for (uint64_t i = 0; i < num_frequent; ++i) {
    uint32_t tok;
    FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &tok));
    if (tok >= vocab) {
      return Status::Corruption("pair frequent token out of vocabulary");
    }
    pair->frequent_.push_back(tok);
  }
  pair->RebuildLookups();
  if (pair->rank_.size() != pair->frequent_.size()) {
    return Status::Corruption("duplicate pair frequent token");
  }
  uint64_t num_keys;
  FTS_RETURN_IF_ERROR(GetVarint64(data, &offset, &num_keys));
  if (num_keys > (body_end - offset) / 2) {  // >= 2 bytes per key
    return Status::Corruption("pair key table larger than input");
  }
  if (num_keys > 0 && num_frequent == 0) {
    return Status::Corruption("pair keys without frequent table");
  }
  pair->keys_.reserve(num_keys);
  pair->lists_.resize(num_keys);
  TokenId prev_first = 0;
  TokenId prev_second = 0;
  for (uint64_t i = 0; i < num_keys; ++i) {
    uint32_t d_first, second;
    FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &d_first));
    FTS_RETURN_IF_ERROR(GetVarint32(data, &offset, &second));
    const TokenId first = prev_first + d_first;
    if (first >= vocab || second >= vocab || first == second) {
      return Status::Corruption("bad pair key");
    }
    if (i > 0 && d_first == 0 && second <= prev_second) {
      return Status::Corruption("non-increasing pair key table");
    }
    // Canonical orientation: `first` must be frequent, and when both sides
    // are frequent the better-ranked one leads — the exact rule Find()
    // canonicalizes queries with.
    const size_t rf = pair->rank(first);
    if (rf == PairIndex::kNotFrequent || pair->rank(second) < rf) {
      return Status::Corruption("non-canonical pair key orientation");
    }
    prev_first = first;
    prev_second = second;
    pair->keys_.push_back({first, second});
    FTS_RETURN_IF_ERROR(adopt(&pair->lists_[i]));
  }
  pair->RebuildLookups();
  if (!pair->keys_.empty()) index.pair_index_ = std::move(pair);

  if (offset != body_end) {
    return Status::Corruption("trailing bytes in index payload");
  }
  header_hash = Fnv1aAccumulate(header_hash,
                                data.substr(hash_mark, body_end - hash_mark));
  size_t coff = body_end;
  uint64_t stored;
  FTS_RETURN_IF_ERROR(GetFixed64(data, &coff, &stored));
  if (stored != header_hash) {
    return Status::Corruption("index header checksum mismatch");
  }
  index.source_ = source;  // lists view into it from here on
  if (prefer_lazy) {
    // O(header) load: per-block structure and payload checksums are
    // verified on first decode instead (memoized in BlockPostingList).
    index.lazy_validation_ = true;
  } else {
    // Adopted payloads are fully validated up front (streaming, O(block)
    // scratch) so query-time cursors never touch malformed bytes.
    FTS_RETURN_IF_ERROR(index.ValidateBlocks());
  }
  // The per-node scalars are now final: refresh the derived minimum the
  // score models use for impact upper bounds.
  index.RecomputeMinUniqNorm();
  *out = std::move(index);
  return Status::OK();
}

void SaveIndexToString(const InvertedIndex& index, std::string* out) {
  out->clear();
  out->append(kMagic, kMagicSize);
  PutCommonSections(index, out);

  std::vector<PayloadRange> payload_ranges;
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    PutBlockPostingList(out, *index.block_list(t), &payload_ranges);
  }
  PutBlockPostingList(out, index.block_any_list(), &payload_ranges);
  // Pair-index section: an index without one writes the empty shape
  // (max_distance 0, no frequent terms, no keys) so the loader needs no
  // presence flag.
  const PairIndex* pair = index.pair_index();
  PutVarint32(out, pair != nullptr ? pair->max_distance() : 0);
  PutVarint64(out, pair != nullptr ? pair->num_frequent() : 0);
  if (pair != nullptr) {
    for (const TokenId t : pair->frequent_terms()) PutVarint32(out, t);
  }
  PutVarint64(out, pair != nullptr ? pair->num_keys() : 0);
  if (pair != nullptr) {
    TokenId prev_first = 0;
    for (size_t i = 0; i < pair->num_keys(); ++i) {
      const PairTermKey& k = pair->key(i);
      PutVarint32(out, k.first - prev_first);
      PutVarint32(out, k.second);
      prev_first = k.first;
      PutBlockPostingList(out, pair->list(i), &payload_ranges);
    }
  }

  // Trailer: header/directory bytes only — block payloads are covered by
  // their per-block checksums, so a lazy loader can verify everything it
  // eagerly reads without touching payload bytes.
  uint64_t hash = kFnv1aSeed;
  size_t mark = kMagicSize;
  for (const PayloadRange& r : payload_ranges) {
    hash = Fnv1aAccumulate(hash, std::string_view(*out).substr(mark, r.begin - mark));
    mark = r.end;
  }
  hash = Fnv1aAccumulate(hash, std::string_view(*out).substr(mark));
  PutFixed64(out, hash);
}

Status LoadIndexFromString(const std::string& data, InvertedIndex* out) {
  // One heap copy of the whole input; the loaded lists view into it rather
  // than holding per-list payload copies.
  return IndexIoAccess::Load(IndexSource::FromString(data),
                             /*prefer_lazy=*/false, out);
}

Status SaveIndexToFile(const InvertedIndex& index, const std::string& path) {
  std::string data;
  SaveIndexToString(index, &data);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status LoadIndexFromFile(const std::string& path, InvertedIndex* out,
                         const LoadOptions& options) {
  if (options.mode == LoadOptions::Mode::kMmap) {
    // IOError (cannot open/stat/map) stays distinct from Corruption (opened
    // but not a parseable index). The file loads lazily in O(header).
    FTS_ASSIGN_OR_RETURN(std::shared_ptr<IndexSource> source,
                         IndexSource::MapFile(path));
    // The load parses the header and directories front to back:
    // sequential readahead helps. Hints are best-effort, failures ignored.
    (void)source->Advise(AccessHint::kSequential);
    FTS_RETURN_IF_ERROR(
        IndexIoAccess::Load(source, /*prefer_lazy=*/true, out));
    if (options.prefault) {
      // Warm-up: pay the whole file's fault-in now, not on first queries.
      // Best-effort like the other hints — the index is already loaded and
      // valid, so a failed madvise must not turn a good load into an error.
      (void)source->Prefault();
    } else {
      // Serving reads hop between blocks via the skip tables; linear
      // readahead would drag in pages queries never touch.
      (void)source->Advise(AccessHint::kRandom);
    }
    return Status::OK();
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open for read: " + path);
  std::string data((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  if (!f.good() && !f.eof()) return Status::IOError("read failed: " + path);
  return IndexIoAccess::Load(IndexSource::FromString(std::move(data)),
                             /*prefer_lazy=*/false, out);
}

StatusOr<std::shared_ptr<const IndexSnapshot>> LoadSnapshotFromFile(
    const std::string& path, const LoadOptions& options) {
  auto index = std::make_shared<InvertedIndex>();
  FTS_RETURN_IF_ERROR(LoadIndexFromFile(path, index.get(), options));
  return IndexSnapshot::Create({std::move(index)});
}

}  // namespace fts

#include "index/index_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/varint.h"
#include "index/block_posting_list.h"
#include "index/index_source.h"
#include "index/pair_index.h"

namespace fts {

namespace {

constexpr char kMagic[8] = {'F', 'T', 'S', 'I', 'D', 'X', '8', '\0'};
constexpr size_t kMagicSize = sizeof(kMagic);
/// Byte of the magic that holds the format version digit.
constexpr size_t kVersionByte = 6;
constexpr size_t kTrailerSize = 8;  // fixed64 holding the CRC32C
/// The smallest byte count a file can occupy: magic + trailer. Inputs
/// below this are rejected before any section parsing runs.
constexpr size_t kMinFileSize = kMagicSize + kTrailerSize;

void PutDouble(std::string* out, double d) {
  PutFixed64Le(out, std::bit_cast<uint64_t>(d));
}

Status GetDouble(std::string_view data, size_t* offset, double* d) {
  if (data.size() - *offset < 8) {
    return Status::Corruption("truncated double at offset " + std::to_string(*offset));
  }
  *d = std::bit_cast<double>(LoadFixed64Le(data.data() + *offset));
  *offset += 8;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Posting lists: the record lane count, then the BlockPostingList skip
// directory, each entry extended
// with the block's CRC32C payload checksum, its max_tf (largest
// per-entry position count, the block-max statistic top-k evaluation turns
// into impact upper bounds) and its encoding tag (varint-delta vs
// fixed-width bitset), then the payload dumped verbatim from / adopted
// verbatim into BlockPostingList. The trailer checksum hops over payloads.
// ---------------------------------------------------------------------------

/// Largest varint64 encoding.
constexpr size_t kMaxVarint64 = 10;

/// The file sink's reused buffer, and the payload size from which a span
/// skips it and goes straight to write(2).
constexpr size_t kFileBufferBytes = size_t{1} << 20;
constexpr size_t kDirectWriteBytes = size_t{64} << 10;

/// The trailer CRC32C of the bytes appended to one buffer, payloads
/// excepted. It folds the buffer in bulk, when it is written out or ends:
/// folding each list's directory as it was written made the string save
/// ~7% slower (BM_IndexSerialize), most likely because the CRC's word
/// loads then read bytes still in flight from single-byte varint stores.
struct TrailerCrc {
  /// Appends a payload to `out`, marked for the fold to hop over.
  void AppendPayload(std::string* out, std::string_view bytes) {
    payloads.push_back({out->size(), out->size() + bytes.size()});
    out->append(bytes);
  }

  /// Extends the CRC over `out` from `mark` to its end, payloads excepted.
  void Fold(std::string_view out) {
    for (const auto& [begin, end] : payloads) {
      crc = Crc32cExtend(crc, out.substr(mark, begin - mark));
      mark = end;
    }
    payloads.clear();
    crc = Crc32cExtend(crc, out.substr(mark));
    mark = out.size();
  }

  uint32_t crc = 0;
  size_t mark = kMagicSize;  // first byte not yet folded; the magic is not covered
  std::vector<std::pair<size_t, size_t>> payloads;  // [begin, end) past mark
};

/// The sinks of the one emitter, EmitIndex: SaveIndexToString's appends
/// to a string, SaveIndexToFile's writes a file without ever staging it.
/// The emitter appends directory bytes to Bytes(n) (at most n per call)
/// and hands each list's payload to Payload(), which the trailer skips.
class StringSink {
 public:
  /// Appends the file to `*out`, which the caller has sized.
  explicit StringSink(std::string* out) : out_(out) { out_->append(kMagic, kMagicSize); }

  std::string* Bytes(size_t) { return out_; }
  void Payload(std::string_view bytes) { crc_.AppendPayload(out_, bytes); }

  /// Appends the trailer.
  Status Finish() {
    crc_.Fold(*out_);
    PutFixed64Le(out_, crc_.crc);
    return Status::OK();
  }

 private:
  std::string* out_;
  TrailerCrc crc_;
};

/// Copies directories and payloads under kDirectWriteBytes into one
/// reused buffer of kFileBufferBytes, and writes larger payloads straight
/// from the lists.
class FileSink {
 public:
  /// Creates or truncates `path`; status() says whether that failed.
  explicit FileSink(const std::string& path)
      : path_(path),
        fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)) {
    if (fd_ < 0) status_ = Status::IOError("cannot open for write: " + path);
    buffer_.reserve(kFileBufferBytes);
    buffer_.append(kMagic, kMagicSize);
  }
  ~FileSink() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  /// The first failure to open or write the file, if any.
  const Status& status() const { return status_; }

  std::string* Bytes(size_t max_bytes) {
    if (buffer_.size() + max_bytes > kFileBufferBytes) Flush();
    return &buffer_;
  }

  void Payload(std::string_view bytes) {
    if (bytes.size() >= kDirectWriteBytes) {
      Flush();
      Write(bytes);
      return;
    }
    crc_.AppendPayload(Bytes(bytes.size()), bytes);
  }

  /// Appends the trailer, writes what is buffered and closes the file.
  /// Returns the first failure to open, write or close it.
  Status Finish() {
    crc_.Fold(buffer_);
    PutFixed64Le(Bytes(kTrailerSize), crc_.crc);
    Write(buffer_);
    // The close reports a failure the writes could not (a full device on
    // some file systems), so it is checked too.
    if (::close(std::exchange(fd_, -1)) != 0 && status_.ok()) {
      status_ = Status::IOError("short write: " + path_);
    }
    return status_;
  }

 private:
  /// Writes out and empties the buffer.
  void Flush() {
    crc_.Fold(buffer_);
    Write(buffer_);
    buffer_.clear();
    crc_.mark = 0;
  }

  /// Writes all of `bytes` to the file, retrying interrupted and short
  /// writes; after the first failure nothing more is written.
  void Write(std::string_view bytes) {
    while (!bytes.empty() && status_.ok()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        status_ = Status::IOError("short write: " + path_);
        return;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  std::string path_;
  int fd_;
  Status status_;
  std::string buffer_;
  TrailerCrc crc_;
};

template <typename Sink>
void PutBlockPostingList(const BlockPostingList& list, Sink* sink) {
  std::string* out =
      sink->Bytes(5 * kMaxVarint64 + 6 * kMaxVarint32Bytes * list.num_blocks());
  PutVarint32(out, list.lanes());
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
    PutVarint32(out, Crc32c(payload.substr(s.byte_offset, end - s.byte_offset)));
    PutVarint32(out, s.max_tf);
    // The encoding tag lives in the directory, so the trailer checksum covers
    // it: a flipped tag is Corruption at load, never a block parsed under
    // the wrong layout.
    PutVarint32(out, s.encoding);
    prev_max = s.max_node;
    prev_off = s.byte_offset;
  }
  PutVarint64(out, payload.size());
  sink->Payload(payload);
}

/// An upper bound of the bytes PutBlockPostingList writes for `list`: five
/// header varints, six varints per skip entry, the payload size and the
/// payload.
size_t BlockListBound(const BlockPostingList& list) {
  return 5 * kMaxVarint64 + 6 * kMaxVarint32Bytes * list.num_blocks() + list.data().size();
}

/// Parsed directory of one serialized block list; the payload is left in
/// place (only its range is recorded). Reused across lists, so parsing
/// allocates nothing per list once the vectors have grown.
struct BlockListDirectory {
  uint32_t lanes = 0;
  uint64_t num_entries = 0;
  uint64_t total_positions = 0;
  uint32_t block_size = 0;
  std::vector<BlockPostingList::SkipEntry> skips;
  std::vector<uint32_t> checksums;
  size_t payload_begin = 0;
  size_t payload_size = 0;
};

/// Parses one list's directory and skips its payload, leaving `*offset`
/// past the list. Its lane count must be `lanes`, the one its section
/// holds. Every count is bounded by the remaining input before sizing
/// containers: the trailer checksum is recomputable by an attacker, so a
/// crafted header must fail with Corruption, not a giant allocation.
Status GetBlockListDirectory(std::string_view data, size_t* offset,
                             uint64_t cnodes, uint32_t lanes,
                             BlockListDirectory* dir) {
  uint64_t num_blocks;
  FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &dir->lanes));
  if (dir->lanes != lanes) {
    return Status::Corruption("list lane count disagrees with its section");
  }
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &dir->num_entries));
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &dir->total_positions));
  FTS_RETURN_IF_ERROR(GetVarint32(data, offset, &dir->block_size));
  FTS_RETURN_IF_ERROR(GetVarint64(data, offset, &num_blocks));
  if (dir->block_size == 0 && num_blocks > 0) {
    return Status::Corruption("zero block size in nonempty block list");
  }
  // Each skip entry takes at least 6 bytes (six varints).
  if (num_blocks > (data.size() - *offset) / 6 || num_blocks > UINT32_MAX) {
    return Status::Corruption("skip table larger than remaining input");
  }
  dir->skips.clear();
  dir->checksums.clear();
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
  // the per-node scalar tables during scoring) once first touch has
  // checked each block's ids against its max_node.
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

/// Writes the whole file of `index` through `sink`, trailer included.
template <typename Sink>
Status EmitIndex(const InvertedIndex& index, Sink* sink) {
  // Statistics.
  const IndexStats& s = index.stats();
  std::string* out = sink->Bytes(5 * kMaxVarint64 + 3 * 8);
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
    out = sink->Bytes(kMaxVarint32Bytes + 8);
    PutVarint32(out, index.unique_tokens(n));
    PutDouble(out, index.node_norm(n));
  }

  // The run table, trailer-covered like every byte but the payloads, in
  // pieces no larger than a direct write.
  std::string_view runs = index.run_table().bytes();
  PutVarint64(sink->Bytes(kMaxVarint64), runs.size());
  while (!runs.empty()) {
    const size_t n = std::min(runs.size(), kDirectWriteBytes);
    sink->Bytes(n)->append(runs.substr(0, n));
    runs.remove_prefix(n);
  }

  // Dictionary.
  PutVarint64(sink->Bytes(kMaxVarint64), index.vocabulary_size());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    const std::string& text = index.token_text(t);
    out = sink->Bytes(kMaxVarint64 + text.size());
    PutVarint64(out, text.size());
    out->append(text);
  }

  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    PutBlockPostingList(*index.block_list(t), sink);
  }
  PutBlockPostingList(index.block_any_list(), sink);
  // Pair-index section: an index without one writes the empty shape
  // (max_distance 0, no frequent terms, no keys) so the loader needs no
  // presence flag.
  const PairIndex* pair = index.pair_index();
  PutVarint32(sink->Bytes(kMaxVarint32Bytes), pair != nullptr ? pair->max_distance() : 0);
  PutVarint64(sink->Bytes(kMaxVarint64), pair != nullptr ? pair->num_frequent() : 0);
  if (pair != nullptr) {
    for (const TokenId t : pair->frequent_terms()) {
      PutVarint32(sink->Bytes(kMaxVarint32Bytes), t);
    }
  }
  PutVarint64(sink->Bytes(kMaxVarint64), pair != nullptr ? pair->num_keys() : 0);
  if (pair != nullptr) {
    TokenId prev_first = 0;
    for (size_t i = 0; i < pair->num_keys(); ++i) {
      const PairTermKey& k = pair->key(i);
      out = sink->Bytes(2 * kMaxVarint32Bytes);
      PutVarint32(out, k.first - prev_first);
      PutVarint32(out, k.second);
      prev_first = k.first;
      PutBlockPostingList(pair->list(i), sink);
    }
  }
  // Trailer: header/directory bytes only — block payloads are covered by
  // their per-block checksums, so a lazy loader can verify everything it
  // eagerly reads without touching payload bytes.
  return sink->Finish();
}

}  // namespace

// Loader backdoor into InvertedIndex privates (declared friend there); all
// deserialization paths funnel through Load().
struct IndexIoAccess {
  static Status Load(std::shared_ptr<IndexSource> source, InvertedIndex* out);
};

Status IndexIoAccess::Load(std::shared_ptr<IndexSource> source,
                           InvertedIndex* out) {
  const std::string_view data = source->view();
  if (data.size() < kMinFileSize) {
    return Status::Corruption("index data smaller than the fixed envelope (" +
                              std::to_string(data.size()) + " < " +
                              std::to_string(kMinFileSize) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
    const char version = data[kVersionByte];
    if (std::memcmp(data.data(), kMagic, kVersionByte) == 0 &&
        data[kVersionByte + 1] == '\0' && version >= '1' && version <= '7') {
      // A retired format: fail closed with a message that says what to do,
      // rather than the generic bad-magic error.
      return Status::Corruption(std::string("index format v") + version +
                                " is no longer supported; rebuild the "
                                "index to write the current v8 format");
    }
    return Status::Corruption("bad index magic");
  }
  // Every section is parsed from the body alone: a section that runs into
  // the trailer is truncated, so `offset` never passes the body's end and
  // the bounds below, which subtract it from the body's size, cannot wrap.
  const std::string_view body = data.substr(0, data.size() - kTrailerSize);

  // The trailer covers only header/directory bytes; it is accumulated
  // during the parse below, hopping over payload ranges without touching
  // them.
  uint32_t header_crc = 0;
  size_t crc_mark = kMagicSize;  // next byte not yet folded into header_crc

  InvertedIndex index;
  size_t offset = kMagicSize;
  IndexStats& s = index.stats_;
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &s.cnodes));
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &s.total_positions));
  FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &s.pos_per_cnode));
  FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &s.entries_per_token));
  FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &s.pos_per_entry));
  FTS_RETURN_IF_ERROR(GetDouble(body, &offset, &s.avg_pos_per_cnode));
  FTS_RETURN_IF_ERROR(GetDouble(body, &offset, &s.avg_entries_per_token));
  FTS_RETURN_IF_ERROR(GetDouble(body, &offset, &s.avg_pos_per_entry));

  // Bound every count read from the file by the bytes that could encode it
  // before sizing containers: the checksum is recomputable by an attacker,
  // so a crafted header must fail with Corruption, not a giant allocation.
  if (s.cnodes > (body.size() - offset) / 9) {  // >= 1 varint + 8-byte double each
    return Status::Corruption("node count larger than remaining input");
  }
  index.unique_tokens_.resize(s.cnodes);
  index.node_norms_.resize(s.cnodes);
  for (uint64_t n = 0; n < s.cnodes; ++n) {
    FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &index.unique_tokens_[n]));
    FTS_RETURN_IF_ERROR(GetDouble(body, &offset, &index.node_norms_[n]));
  }

  // The run table, validated in full here and viewed in place from then
  // on.
  uint64_t runs_size;
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &runs_size));
  if (runs_size > body.size() - offset) {  // subtract, don't add: no overflow
    return Status::Corruption("run table runs into the trailer");
  }
  FTS_ASSIGN_OR_RETURN(index.runs_,
                       RunTable::FromBytes(body.substr(offset, runs_size), s.cnodes));
  offset += runs_size;

  uint64_t vocab;
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &vocab));
  if (vocab > body.size() - offset) {  // >= 1 length byte per token
    return Status::Corruption("vocabulary larger than remaining input");
  }
  index.token_texts_.reserve(vocab);
  index.token_ids_.reserve(vocab);  // no rehash while the map fills
  for (uint64_t t = 0; t < vocab; ++t) {
    uint64_t len;
    FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &len));
    if (len > body.size() - offset) {  // subtract, don't add: no overflow
      return Status::Corruption("truncated dictionary string");
    }
    index.token_texts_.emplace_back(body.substr(offset, len));
    index.token_ids_.emplace(index.token_texts_.back(), static_cast<TokenId>(t));
    offset += len;
  }

  // Each list's directory lands in the store of the index (or of its pair
  // index) that will hold it; the stores bind the lists once every
  // directory is read.
  BlockListDirectory dir;
  const auto adopt = [&](PostingStore* store, uint32_t lanes) -> Status {
    FTS_RETURN_IF_ERROR(GetBlockListDirectory(body, &offset, s.cnodes, lanes, &dir));
    // Fold the header/directory bytes since the last payload into the
    // trailer checksum, then hop over this list's payload untouched.
    header_crc =
        Crc32cExtend(header_crc, data.substr(crc_mark, dir.payload_begin - crc_mark));
    crc_mark = dir.payload_begin + dir.payload_size;
    store->AddChecked(lanes,
                      dir.block_size == 0 ? BlockPostingList::kDefaultBlockSize
                                          : dir.block_size,
                      dir.num_entries, dir.total_positions, dir.skips,
                      dir.checksums, dir.payload_begin, dir.payload_size);
    return Status::OK();
  };
  index.df_.resize(vocab);
  index.lists_.Reserve(vocab + 1, 0, 0);
  for (uint64_t t = 0; t < vocab; ++t) {
    FTS_RETURN_IF_ERROR(adopt(&index.lists_, 1));
    index.df_[t] = static_cast<uint32_t>(dir.num_entries);
  }
  FTS_RETURN_IF_ERROR(adopt(&index.lists_, 1));
  index.lists_.Seal(source);

  // Pair-index section: frequent-term table (rank order), then the sorted
  // canonical key table with each key's list inline. Every structural
  // invariant Find()/the planner rely on is enforced here; the lists
  // themselves get the same directory checks and first-touch block
  // validation as any other list.
  uint32_t max_distance;
  uint64_t num_frequent;
  FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &max_distance));
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &num_frequent));
  if (num_frequent > body.size() - offset) {  // >= 1 byte per id
    return Status::Corruption("pair frequent table larger than input");
  }
  auto pair = std::make_unique<PairIndex>();
  pair->max_distance_ = max_distance;
  pair->frequent_.reserve(num_frequent);
  for (uint64_t i = 0; i < num_frequent; ++i) {
    uint32_t tok;
    FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &tok));
    if (tok >= vocab) {
      return Status::Corruption("pair frequent token out of vocabulary");
    }
    pair->frequent_.push_back(tok);
  }
  pair->rank_ = PairIndex::SortedRanks(pair->frequent_);
  if (std::adjacent_find(pair->rank_.begin(), pair->rank_.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != pair->rank_.end()) {
    return Status::Corruption("duplicate pair frequent token");
  }
  uint64_t num_keys;
  FTS_RETURN_IF_ERROR(GetVarint64(body, &offset, &num_keys));
  if (num_keys > (body.size() - offset) / 2) {  // >= 2 bytes per key
    return Status::Corruption("pair key table larger than input");
  }
  if (num_keys > 0 && num_frequent == 0) {
    return Status::Corruption("pair keys without frequent table");
  }
  pair->keys_.reserve(num_keys);
  pair->lists_.Reserve(num_keys, 0, 0);
  TokenId prev_first = 0;
  TokenId prev_second = 0;
  for (uint64_t i = 0; i < num_keys; ++i) {
    uint32_t d_first, second;
    FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &d_first));
    FTS_RETURN_IF_ERROR(GetVarint32(body, &offset, &second));
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
    FTS_RETURN_IF_ERROR(adopt(&pair->lists_, 2));
  }
  pair->lists_.Seal(source);
  if (!pair->keys_.empty()) index.pair_index_ = std::move(pair);

  if (offset != body.size()) {
    return Status::Corruption("trailing bytes in index payload");
  }
  header_crc = Crc32cExtend(header_crc, body.substr(crc_mark));
  // The upper 32 bits of the stored trailer are zero.
  if (LoadFixed64Le(data.data() + body.size()) != header_crc) {
    return Status::Corruption("index header checksum mismatch");
  }
  // Read or mapped, the load parses no payload byte: each block is
  // validated on its first decode, and each pair record where a routed
  // query reads it (eval/pair_plan.cc).
  index.source_ = source;  // lists view into it from here on
  // The stored norms are final: derive the minimum the score models use
  // for impact upper bounds, as ComputeNodeNorms does at build time.
  index.min_uniq_norm_ = MinUniqNorm(index, index.node_norms_, nullptr);
  *out = std::move(index);
  return Status::OK();
}

void SaveIndexToString(const InvertedIndex& index, std::string* out) {
  // Sized once from an upper bound — the payloads plus bounds of every
  // directory and section — so a large index never regrows its output.
  const PairIndex* pair = index.pair_index();
  // The statistics (five varints, three doubles), the dictionary size and
  // the pair section's three counts.
  size_t bound = kMagicSize + 5 * kMaxVarint64 + 4 * kMaxVarint32Bytes + 3 * 8 + kTrailerSize;
  bound += index.num_nodes() * (kMaxVarint32Bytes + 8);
  bound += kMaxVarint64 + index.run_table().bytes().size();
  bound += BlockListBound(index.block_any_list());
  for (TokenId t = 0; t < index.vocabulary_size(); ++t) {
    bound += kMaxVarint64 + index.token_text(t).size();
    bound += BlockListBound(*index.block_list(t));
  }
  if (pair != nullptr) {
    bound += pair->num_frequent() * kMaxVarint32Bytes;
    for (size_t i = 0; i < pair->num_keys(); ++i) {
      bound += 2 * kMaxVarint32Bytes + BlockListBound(pair->list(i));
    }
  }
  out->clear();
  out->reserve(bound);
  StringSink sink(out);
  // A string sink cannot fail.
  [[maybe_unused]] const Status emitted = EmitIndex(index, &sink);
}

Status LoadIndexFromString(const std::string& data, InvertedIndex* out) {
  // One heap copy of the whole input; the loaded lists view into it rather
  // than holding per-list payload copies.
  return IndexIoAccess::Load(IndexSource::FromString(data), out);
}

Status SaveIndexToFile(const InvertedIndex& index, const std::string& path) {
  FileSink sink(path);
  FTS_RETURN_IF_ERROR(sink.status());
  return EmitIndex(index, &sink);
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
    FTS_RETURN_IF_ERROR(IndexIoAccess::Load(source, out));
    // Serving reads hop between blocks via the skip tables; linear
    // readahead would drag in pages queries never touch.
    (void)source->Advise(AccessHint::kRandom);
    return Status::OK();
  }
  FTS_ASSIGN_OR_RETURN(std::shared_ptr<IndexSource> source,
                       IndexSource::ReadFile(path));
  return IndexIoAccess::Load(std::move(source), out);
}

StatusOr<std::shared_ptr<const IndexSnapshot>> LoadSnapshotFromFile(
    const std::string& path, const LoadOptions& options) {
  auto index = std::make_shared<InvertedIndex>();
  FTS_RETURN_IF_ERROR(LoadIndexFromFile(path, index.get(), options));
  return IndexSnapshot::Create({std::move(index)});
}

}  // namespace fts

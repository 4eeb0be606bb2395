// Block-compressed, skip-seekable posting storage (the v8 index layout).
//
// A BlockPostingList stores one inverted list's (cn, PosList) sequence
// packed into fixed-size blocks (kDefaultBlockSize entries) of
// varint-coded deltas: node ids are delta-coded within a block (first id
// absolute, so every block decodes independently), and each entry's
// records sit behind a per-entry byte-length, so entry headers decode
// without touching record bytes. A record has one or two 32-bit lanes (the
// list's lanes()): token lists and IL_ANY store one, the token offset,
// delta-coded within the entry; sentence and paragraph live once per node
// in the index's run table (index/run_table.h), and a cursor fills them in
// only for a plan that reads them. Pair lists (index/pair_index.h) store
// two: an offset lane coded the same way and a second lane stored as is.
// Each block is fronted by a skip header (max_node, byte_offset,
// entry_count), so a cursor can locate the unique block that may contain a
// target node with a binary search over headers and decode only that block
// — O(log #blocks) probes plus one block decode, instead of a linear scan
// of the whole list.
//
// BlockListCursor exposes the paper's sequential list API (NextEntry /
// GetPositions) plus SeekEntry(target). Entry headers (node id, position
// count) are bulk-decoded a block at a time — one tight loop over the
// pointer varint primitives (common/varint.h) into a reusable arena or a
// shared DecodedBlockCache (index/decoded_block_cache.h) — and an entry's
// PosList is decoded lazily on first GetPositions(), so node-level
// evaluation (BOOL merges, zig-zag alignment) never pays for position
// bytes it skips. All block decodes, cache hits/misses, and skip probes
// are charged to EvalCounters so benchmarks can separate the paper's
// sequential-access model from the skip machinery.
//
// A list is an immutable fixed-size record with no heap member of its own:
// it views its slice of the stores of the index that owns it
// (PostingStore) — one flat skip directory, one checksum table and one
// first-touch flag array for all of the index's lists, plus one payload
// byte store (the index's own buffer when built, the loaded file's bytes
// otherwise). BlockListWriter holds the append-time state and seals each
// finished list into a store. Loaded lists carry per-block checksums and
// validate each block — checksum, structure, position framing — on its
// first decode, memoized per block; a first-touch failure is reported
// through the cursor's sticky status() and the cursor fails closed.

#ifndef FTS_INDEX_BLOCK_POSTING_LIST_H_
#define FTS_INDEX_BLOCK_POSTING_LIST_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/page_allocator.h"
#include "common/status.h"
#include "text/document.h"

namespace fts {

class IndexSource;  // index/index_source.h
class RunTable;     // index/run_table.h

/// One record of a two-lane list (a pair list, index/pair_index.h):
/// `first` is the offset lane, delta-coded within its entry, `second` the
/// lane stored as is.
struct PairRecord {
  uint32_t first = 0;
  uint32_t second = 0;
};

/// One (cn, PosList) pair of an inverted list as BlockPostingList::
/// DecodeBlock returns it: the entry's positions are the [pos_begin,
/// pos_begin + pos_count) slice of the block's decoded position array.
struct PostingEntry {
  NodeId node = kInvalidNode;
  uint32_t pos_begin = 0;
  uint32_t pos_count = 0;
};


/// One inverted list (the FTA relation R_token, or IL_ANY): a view into
/// the PostingStore that holds it, valid while that store lives. Copying
/// a list copies the view.
class BlockPostingList {
 public:
  static constexpr uint32_t kDefaultBlockSize = 128;

  /// Per-block payload encodings (the hybrid format). The writer
  /// classifies each sealed block: sparse blocks keep the varint-delta
  /// layout; blocks whose id span is within kDenseSpanFactor of their
  /// entry count become fixed-width bitset blocks — a base id plus
  /// little-endian 64-bit words with one bit per present id, followed by
  /// the per-entry position-count stream, position-byte-length stream and
  /// concatenated position bytes. Bitset blocks decode by bit expansion
  /// (and AND at word level in the BOOL zig-zag fast path); cursors,
  /// caches, block-max and tombstones are all encoding-transparent.
  static constexpr uint8_t kEncodingVarint = 0;
  static constexpr uint8_t kEncodingBitset = 1;

  /// Dense classification: at least this many entries spanning at most
  /// kDenseSpanFactor * entry_count ids (>= 1/4 of the span present).
  static constexpr uint32_t kMinDenseEntries = 16;
  static constexpr uint32_t kDenseSpanFactor = 4;

  /// Skip header of one block. `byte_offset` points at the block's first
  /// byte inside data(); `max_node` is the id of its last entry. `max_tf`
  /// is the largest per-entry position count in the block — the block-max
  /// statistic score models turn into an impact upper bound so top-k
  /// evaluation can skip blocks that cannot beat the heap threshold. Every
  /// block's entries are checked against it on decode, so a file cannot
  /// understate it. `encoding` selects the block's payload layout
  /// (kEncodingVarint / kEncodingBitset).
  struct SkipEntry {
    NodeId max_node = 0;
    uint32_t byte_offset = 0;
    uint32_t entry_count = 0;
    uint32_t max_tf = 0;
    uint8_t encoding = kEncodingVarint;
  };

  /// Process-wide default for whether writers may emit bitset blocks
  /// (on unless set off; off pins everything to varint — the differential
  /// axis that proves the hybrid format changes no result). Returns the
  /// previous value so tests can restore it.
  static bool SetDenseBlocksEnabledByDefault(bool enabled);
  static bool DenseBlocksEnabledByDefault();

  /// An empty list: no blocks, no store.
  BlockPostingList() = default;

  /// True when any block of this list is bitset-encoded.
  bool has_bitset_blocks() const {
    for (const SkipEntry& s : skips_) {
      if (s.encoding != kEncodingVarint) return true;
    }
    return false;
  }

  /// Lanes per record: 1 for token lists and IL_ANY (the offset), 2 for
  /// pair lists (PairRecord).
  uint32_t lanes() const { return lanes_; }

  size_t num_entries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  size_t total_positions() const { return total_positions_; }
  uint32_t block_size() const { return block_size_; }
  size_t num_blocks() const { return skips_.size(); }
  const SkipEntry& skip(size_t block) const { return skips_[block]; }
  std::span<const SkipEntry> skips() const { return skips_; }

  /// Compressed payload (concatenated block bytes): this list's slice of
  /// its store's payload bytes.
  std::string_view data() const { return data_; }

  /// Compressed footprint: payload plus the varint-coded max_node,
  /// byte_offset and entry_count of each skip entry (the on-disk directory
  /// adds a checksum, max_tf and encoding tag per block).
  size_t byte_size() const;

  /// One decoded entry header plus the location of its (still compressed)
  /// position bytes within data().
  struct EntryRef {
    PostingEntry header;      // node + pos_count (pos_begin unused)
    uint32_t pos_byte_begin;  // offset of the entry's position bytes
    uint32_t pos_byte_len;    // length of the entry's position bytes
  };

  /// Decodes block `block` of a one-lane list into `entries`/`positions`
  /// (replacing their contents; entries' pos_begin index into
  /// `positions`, which carry offsets only). Returns Corruption on
  /// malformed payload bytes.
  Status DecodeBlock(size_t block, std::vector<PostingEntry>* entries,
                     std::vector<PositionInfo>* positions) const;

  /// Decodes only block `block`'s entry headers (node ids, position
  /// counts), hopping over position bytes. A loaded list's first decode of
  /// the block is the block's one validator: it verifies the payload
  /// checksum, the entry structure and each entry's position framing
  /// (exactly lanes() * pos_count varint32s, walked uncharged, decoding no
  /// position) and memoizes success per block, so the hot path and the
  /// block caches pay it once per block per index lifetime. `counters`, when
  /// non-null, is charged simd_groups_decoded for each bulk group decode
  /// the dispatched SIMD arm performed and, for a non-empty block,
  /// blocks_decoded, blocks_bulk_decoded and entries_decoded.
  Status DecodeBlockEntries(size_t block, std::vector<EntryRef>* entries,
                            EvalCounters* counters = nullptr) const;

  /// Decodes the PosList of one entry of a one-lane list previously
  /// returned by DecodeBlockEntries (replacing `positions`, offsets only):
  /// DecodePositionRun's run of one.
  Status DecodePositions(const EntryRef& entry,
                         std::vector<PositionInfo>* positions,
                         EvalCounters* counters = nullptr) const;

  /// The one record decoder, a decode-and-prefix kernel over the list's
  /// lanes: this overload decodes one-lane lists into positions that
  /// carry the offset (sentence and paragraph 0), the next one two-lane
  /// lists into PairRecords; asked for the other lane count it returns
  /// InvalidArgument. Decodes the PosLists of `run` — one entry,
  /// or consecutive entries of one decoded block whose position bytes tile
  /// back to back (true by construction for bitset blocks, whose layout
  /// concatenates all position bytes exactly so this pass can run the
  /// dispatched group decoder at full width instead of stopping at every
  /// few-byte entry boundary) — in one decode-and-prefix pass, into the
  /// front of `positions`, which grows to hold them and is never shrunk
  /// (a reused arena is not zero-filled again). When
  /// `offsets` is non-null it is replaced by run.size() + 1 bounds:
  /// offsets[i]..offsets[i+1] is entry i's slice. Returns Corruption on any
  /// structural anomaly (bytes that do not tile, a count the bytes cannot
  /// hold, malformed varints, a region not consumed exactly). `counters`,
  /// when non-null, is charged simd_groups_decoded per group decode of a
  /// SIMD arm.
  Status DecodePositionRun(std::span<const EntryRef> run,
                           std::vector<PositionInfo>* positions,
                           std::vector<uint32_t>* offsets,
                           EvalCounters* counters = nullptr) const;
  Status DecodePositionRun(std::span<const EntryRef> run,
                           std::vector<PairRecord>* records,
                           std::vector<uint32_t>* offsets,
                           EvalCounters* counters = nullptr) const;

  /// True when block `block` has already passed (or never needs) first-touch
  /// validation. Cursors use the transition to charge
  /// EvalCounters::first_touch_validations.
  bool BlockVerified(size_t block) const {
    return verified_ == nullptr ||
           VerifiedFlags()[block].load(std::memory_order_acquire) != 0;
  }

  /// Process-unique id of this list, assigned when its store is sealed
  /// (copies of the record share it, as they share its bytes; the empty
  /// list has 0 and no blocks). Decoded-block caches key on (uid, block)
  /// instead of the record address so that once a segment generation
  /// retires and its heap is reused, a new list at the same address can
  /// never be served another list's cached blocks. Uids are never reused
  /// within a process.
  uint64_t uid() const { return uid_; }

 private:
  friend class PostingStore;

  /// DecodePositionRun's kernel, for kLanes-lane lists emitting Out.
  template <uint32_t kLanes, typename Out>
  Status DecodeRun(std::span<const EntryRef> run, std::vector<Out>* out,
                   std::vector<uint32_t>* offsets, EvalCounters* counters) const;

  Status DecodeBitsetBlock(size_t block, const SkipEntry& skip,
                           std::string_view payload, size_t end,
                           std::vector<EntryRef>* entries,
                           EvalCounters* counters) const;

  /// The list's slices of its store's checksum and flag arrays (one slot
  /// per block): spans, so a bounds-checked build catches a list reading
  /// its neighbour's slots.
  std::span<const uint32_t> Checksums() const {
    return {checksums_, skips_.size()};
  }
  std::span<std::atomic<uint8_t>> VerifiedFlags() const {
    return {verified_, skips_.size()};
  }

  /// This list's slice of the store's payload bytes.
  std::string_view data_;
  /// This list's slice of the store's flat skip directory.
  std::span<const SkipEntry> skips_;
  /// First of num_blocks() per-block payload checksums (CRC32C) in the
  /// store's table; null for lists sealed from a writer.
  const uint32_t* checksums_ = nullptr;
  /// First of num_blocks() first-touch validation flags in the store's
  /// array; null for lists sealed from a writer, whose blocks are trusted.
  /// Atomic so concurrent read-only queries over a shared index may race
  /// benignly on the memo without UB.
  std::atomic<uint8_t>* verified_ = nullptr;
  uint64_t num_entries_ = 0;
  uint64_t total_positions_ = 0;
  uint64_t uid_ = 0;
  uint32_t block_size_ = kDefaultBlockSize;
  uint8_t lanes_ = 1;
};

// An index holds one record per token and per pair key (hundreds of
// thousands on a large index): every byte here is resident per list.
static_assert(sizeof(BlockPostingList) <= 80,
              "BlockPostingList is a fixed-size view record");

/// Builds one list: entries are appended in strictly increasing node order
/// and packed into blocks as each block fills. PostingStore::Add seals the
/// finished list into a store and empties the writer for the next list;
/// the list is read through the store from then on.
class BlockListWriter {
 public:
  /// A writer of `lanes`-lane records (1: token lists; 2: pair lists).
  explicit BlockListWriter(
      uint32_t block_size = BlockPostingList::kDefaultBlockSize,
      uint32_t lanes = 1)
      : block_size_(block_size == 0 ? BlockPostingList::kDefaultBlockSize
                                    : block_size),
        lanes_(static_cast<uint8_t>(lanes)) {}

  /// Appends one entry of a one-lane list; node ids must be strictly
  /// increasing. Its offsets are encoded into the pending block's bytes at
  /// once; sentence and paragraph are not stored (the run table holds
  /// them).
  void Append(NodeId node, std::span<const PositionInfo> positions);

  /// Appends the bytes Append stores for `positions` to `out`: offset
  /// varint deltas restarting from zero, so they never depend on the
  /// entry's node id or its neighbours. AppendEncoded takes them as they
  /// are.
  static void EncodePositions(std::span<const PositionInfo> positions,
                              std::vector<uint8_t>* out);

  /// The two-lane counterpart of EncodePositions: per record the `first`
  /// lane as a varint delta restarting from zero, then `second` as is.
  static void EncodeRecords(std::span<const PairRecord> records,
                            std::vector<uint8_t>* out);

  /// Appends one entry whose `pos_count` positions are already encoded:
  /// `pos_bytes` is an entry's position bytes exactly as another list holds
  /// them (EntryRef::pos_byte_begin/pos_byte_len). Position bytes are
  /// per-entry deltas, independent of the node id, so an entry moves
  /// between lists — under a new id — as a byte copy; the result is what
  /// Append would have produced from the decoded positions. The bytes must
  /// come from a trusted list (built, or a block that passed its first
  /// decode).
  void AppendEncoded(NodeId node, uint32_t pos_count,
                     std::string_view pos_bytes);

 private:
  friend class PostingStore;

  // Entries accumulated for the block currently being built; each one's
  // encoded position bytes are pending_bytes_[pos_byte_begin, +pos_byte_len).
  struct PendingEntry {
    NodeId node;
    uint32_t pos_count;
    uint32_t pos_byte_begin;
    uint32_t pos_byte_len;
  };

  /// Records a pending entry whose position bytes were just appended to
  /// pending_bytes_ from `byte_begin` on.
  void AppendPending(NodeId node, uint32_t pos_count, size_t byte_begin);
  void FlushPending();
  void FlushPendingBitset(BlockPostingList::SkipEntry* skip);

  uint32_t block_size_;
  uint8_t lanes_;
  /// Whether FlushPending may classify blocks as dense (bitset-encoded).
  bool dense_enabled_ = BlockPostingList::DenseBlocksEnabledByDefault();
  uint64_t num_entries_ = 0;
  uint64_t total_positions_ = 0;
  PageBytes payload_;  // sealed blocks' bytes
  std::vector<BlockPostingList::SkipEntry> skips_;
  std::vector<PendingEntry> pending_;
  std::vector<uint8_t> pending_bytes_;
};

/// The stores every list of one index (or of one pair index) views into:
/// one flat skip directory, one checksum table and one first-touch flag
/// array for all of its lists, plus the payload bytes — the store's own
/// buffer when its lists come from writers, an IndexSource (heap buffer or
/// mmap'd file) when they are loaded. Lists are added in order, then
/// Seal() binds each record to its slices; from then on the store is
/// immutable. Moving a sealed store keeps every list valid: the arrays
/// move their heap buffers and the source is shared.
class PostingStore {
 public:
  PostingStore() = default;
  PostingStore(PostingStore&&) noexcept = default;
  PostingStore& operator=(PostingStore&&) noexcept = default;

  /// Sizes the arrays for `lists` more lists holding `blocks` blocks and
  /// `payload_bytes` writer payload bytes in all, so adding them never
  /// regrows the store.
  void Reserve(size_t lists, size_t blocks, size_t payload_bytes);

  /// Appends `writer`'s list (flushing its tail block first) and empties
  /// the writer. Its buffers keep their capacity, so one writer reused for
  /// list after list allocates once.
  void Add(BlockListWriter&& writer);

  /// Gives back the payload buffers' growth slack, for a caller that
  /// could not size the payload up front (Reserve). Call before Seal.
  void ShrinkPayload();

  /// Appends every list of `parts` (unsealed stores of writer-added
  /// lists), part after part, and empties the parts. Each part's payload
  /// buffers are adopted, not copied; the skip directory is sized once.
  void Append(std::span<PostingStore> parts);

  /// Appends a list read from a file: `lanes`-lane records in blocks
  /// `skips` (fewer than 2^32), with per-block payload checksums
  /// `checksums`, over the [payload_begin, payload_begin + payload_size)
  /// slice of the source Seal is given. Its blocks are validated on first
  /// decode. Allocates nothing per list beyond the arrays' amortized
  /// growth.
  void AddChecked(uint32_t lanes, uint32_t block_size, uint64_t num_entries,
                  uint64_t total_positions,
                  std::span<const BlockPostingList::SkipEntry> skips,
                  std::span<const uint32_t> checksums, size_t payload_begin,
                  size_t payload_size);

  /// Binds every added list; call once, after the last Add/AddChecked.
  /// `source` holds the bytes checked lists view; null when every list came
  /// from a writer (the store's own buffer is then their payload).
  void Seal(std::shared_ptr<const IndexSource> source = nullptr);

  size_t size() const { return lists_.size(); }
  const BlockPostingList& list(size_t i) const { return lists_[i]; }
  std::span<const BlockPostingList> lists() const { return lists_; }

  /// Resident heap bytes: the list records and the three per-block arrays
  /// by capacity, and the bytes written to the store's own payload buffers
  /// (a buffer reserved larger than it was filled leaves its unwritten
  /// pages untouched). A source's bytes are not counted — the index that
  /// loaded it charges a heap source once.
  size_t MemoryUsage() const;

 private:
  /// Where one added list lives in the arrays and the payload (offsets:
  /// the arrays may still grow until Seal).
  struct Extent {
    uint64_t num_entries;
    uint64_t total_positions;
    size_t payload_begin;
    size_t payload_size;
    uint32_t num_blocks;  // the list's blocks follow the previous list's
    uint32_t block_size;
    uint32_t lanes;
    size_t buffer;  // writer-added lists: which of payloads_ holds it; else 0
  };

  std::vector<BlockPostingList> lists_;
  std::vector<Extent> extents_;  // added, not yet sealed
  std::vector<BlockPostingList::SkipEntry> skips_;
  std::vector<uint32_t> checksums_;  // checked lists only, one per block
  /// One flag per block of checked lists; null when every list came from
  /// a writer.
  std::unique_ptr<std::atomic<uint8_t>[]> verified_;
  /// Writer-added lists' payload bytes: the buffer Add appends to is the
  /// last; Append adopts the earlier ones (vectors: moving them keeps the
  /// buffers the lists view). Pages, so a buffer a build worker filled
  /// leaves nothing resident in its thread's malloc arena once freed.
  std::vector<PageBytes> payloads_;
  std::shared_ptr<const IndexSource> source_;
};

struct DecodedBlock;      // index/decoded_block_cache.h
class DecodedBlockCache;  // index/decoded_block_cache.h
class TombstoneSet;       // index/tombstone_set.h

/// Cursor over a BlockPostingList: the paper's sequential list API
/// (Section 5.1.2) plus skip-based seeking. Entry headers are bulk-decoded one block at a time
/// — one tight pointer-varint loop per block — into either a reusable
/// cursor-owned arena or, when a DecodedBlockCache is attached, a cached
/// block shared by every cursor of the query. PosLists decode lazily per
/// entry. GetPositions() spans stay valid until the cursor moves to a
/// different entry.
class BlockListCursor {
 public:
  /// `list` may be null (OOV token): the cursor is immediately exhausted.
  /// `cache`, when non-null, must outlive the cursor; block loads are then
  /// served from / inserted into it. `tombstones`, when non-null, filters
  /// deleted entries at the cursor level: NextEntry/SeekEntry skip
  /// tombstoned node ids, so the cursor never rests on a deleted entry and
  /// engines above see only live nodes (docs/ingestion.md). `structure`,
  /// the run table of the list's index, is given only when the plan holds
  /// a predicate that reads sentence or paragraph
  /// (PositionPredicate::reads_structure): GetPositions then fills them
  /// in; without it they read 0.
  explicit BlockListCursor(const BlockPostingList* list,
                           EvalCounters* counters = nullptr,
                           DecodedBlockCache* cache = nullptr,
                           const TombstoneSet* tombstones = nullptr,
                           const RunTable* structure = nullptr)
      : list_(list), counters_(counters), cache_(cache),
        tombstones_(tombstones), structure_(structure) {}

  // Move-only: `entries_` may point into the cursor's own arena, so the
  // (out-of-line) move re-anchors it and copies are disallowed.
  BlockListCursor(BlockListCursor&& o) noexcept { *this = std::move(o); }
  BlockListCursor& operator=(BlockListCursor&& o) noexcept;
  BlockListCursor(const BlockListCursor&) = delete;
  BlockListCursor& operator=(const BlockListCursor&) = delete;

  /// Advances to the next entry and returns its node id, or kInvalidNode
  /// when the list is exhausted. The first call lands on the first entry.
  /// The within-block advance is inlined — sequential walks pay one branch
  /// and an array load per entry; block transitions, cursor start and
  /// tombstone filtering take the out-of-line slow path.
  NodeId NextEntry() {
    if (tombstones_ == nullptr && started_ && !exhausted_ &&
        idx_ + 1 < entries_->size()) {
      ++idx_;
      if (counters_ != nullptr) ++counters_->entries_scanned;
      return node_ = (*entries_)[idx_].header.node;
    }
    return NextEntrySlow();
  }

  /// Positions the cursor on the first entry with node id >= `target` and
  /// returns that id (kInvalidNode if no such entry). Starts the cursor if
  /// needed. Seeking backwards is rejected: if the current entry already
  /// has node id >= target the cursor does not move.
  NodeId SeekEntry(NodeId target);

  /// PosList of the current entry of a one-lane list (decoded on first
  /// call per entry); the cursor must be on an entry. Returns an empty
  /// span (and sets status()) if the position bytes fail to decode.
  /// Serving from the position arena is inlined (two loads); the decode
  /// and the streak rule that sizes it are out of line.
  std::span<const PositionInfo> GetPositions() {
    if (InArena()) return Serve(positions_);
    return GetPositionsSlow();
  }

  /// GetPositions for a two-lane list: the current entry's PairRecords.
  std::span<const PairRecord> GetRecords() {
    if (InArena()) return Serve(records_);
    return GetRecordsSlow();
  }

  /// Position count of the current entry — free, no position decode.
  uint32_t pos_count() const { return (*entries_)[idx_].header.pos_count; }

  NodeId current_node() const { return node_; }
  bool exhausted() const { return exhausted_; }

  /// Index of the block the cursor currently has decoded, or SIZE_MAX when
  /// the cursor has not started or is exhausted. Block-max evaluation uses
  /// this to avoid charging the resident block to blocks_skipped_by_score.
  size_t current_block() const {
    return started_ && !exhausted_ ? block_ : SIZE_MAX;
  }

  /// Raw bitset view of the cursor's current block when (and only when) it
  /// is bitset-encoded: `words` points at `nwords` unaligned little-endian
  /// 64-bit words whose bit i stands for node id `base + i`. Valid while
  /// the cursor stays on this block (the block has already been decoded —
  /// and first-touch validated — to position the cursor here). The BOOL
  /// zig-zag AND fast path intersects two of these at word level.
  struct DenseBlockView {
    NodeId base = 0;
    NodeId max_node = 0;
    const uint8_t* words = nullptr;
    size_t nwords = 0;
  };
  bool CurrentDenseBlock(DenseBlockView* view) const;

  /// Decoded entry headers of the current block (all entries, tombstoned
  /// included — tombstones filter cursor movement, not decode). The dense
  /// AND fast path maps bitset ranks onto this span for pos_count lookups.
  std::span<const BlockPostingList::EntryRef> block_entries() const {
    return entries_ != nullptr
               ? std::span<const BlockPostingList::EntryRef>(entries_->data(),
                                                             entries_->size())
               : std::span<const BlockPostingList::EntryRef>();
  }

  /// The tombstone filter this cursor applies (null = none). Exposed so
  /// word-level intersection can apply the same filtering the movement
  /// primitives would.
  const TombstoneSet* tombstone_filter() const { return tombstones_; }

  /// Sticky decode status. Under first-touch validation a block decode can
  /// fail at query time (lazily detected corruption); the cursor then
  /// reports exhaustion — failing closed, never returning partial garbage
  /// — and records the error here. Engines check it after draining a
  /// cursor and propagate it out of Evaluate().
  const Status& status() const { return status_; }

 private:
  /// Bulk-decodes block `block`'s entry headers (through the cache when one
  /// is attached) and parks the cursor before its first entry. Position
  /// bytes stay untouched until GetPositions().
  bool LoadBlock(size_t block);

  /// The unfiltered movement primitives; NextEntry/SeekEntry wrap them in a
  /// tombstone-skipping loop.
  NodeId NextEntryUnfiltered();
  NodeId SeekEntryUnfiltered(NodeId target);

  /// Out-of-line complements of the inlined fast paths above.
  NodeId NextEntrySlow();
  std::span<const PositionInfo> GetPositionsSlow();
  std::span<const PairRecord> GetRecordsSlow();

  /// True when the arena holds the current entry's records.
  bool InArena() const {
    return pos_block_ == block_ && idx_ >= pos_from_ && idx_ < pos_to_;
  }
  /// The current entry's slice of an arena InArena() vouches for.
  template <typename T>
  std::span<const T> Serve(const std::vector<T>& arena) const {
    const size_t rel = idx_ - pos_from_;
    return {arena.data() + pos_offsets_[rel],
            pos_offsets_[rel + 1] - pos_offsets_[rel]};
  }
  /// Decodes the run the streak rule picks, from the current entry on,
  /// into `arena` and returns the current entry's slice (empty, with
  /// status() set, on a decode failure).
  template <typename T>
  std::span<const T> DecodeIntoArena(std::vector<T>* arena);

  const BlockPostingList* list_;
  EvalCounters* counters_;
  DecodedBlockCache* cache_;
  const TombstoneSet* tombstones_ = nullptr;
  const RunTable* structure_ = nullptr;
  /// Current block's decoded headers: points into `arena_` (uncached) or
  /// into `cached_` (cache-served; the shared_ptr keeps it alive across
  /// eviction).
  const std::vector<BlockPostingList::EntryRef>* entries_ = nullptr;
  std::vector<BlockPostingList::EntryRef> arena_;  // reusable decode arena
  std::shared_ptr<const DecodedBlock> cached_;
  /// The position arena: the PosLists of entries [pos_from_, pos_to_) of
  /// block pos_block_, entry pos_from_ + i's at positions_[pos_offsets_[i],
  /// pos_offsets_[i + 1]). A lone GetPositions decodes a run of one entry.
  /// When GetPositions is called for kBulkStreakTrigger consecutive entries
  /// of one bitset block — the signature of a positions-heavy walk — a
  /// bounded span of the block's following PosLists decodes in one
  /// contiguous SIMD pass instead. Spans start small and double each time
  /// the walk crosses pos_to_: a full-block walk converges to a handful of
  /// wide decodes, while an adaptive zig-zag that streaks briefly and then
  /// skips away wastes at most one small span — measured on the fig6/fig8
  /// predicate workloads, whose streaks run ~2 entries, a 2-entry trigger
  /// with unbounded spans cost ~20%. Selective access never triggers it,
  /// keeping per-entry laziness for one-match-per-block patterns.
  static constexpr uint32_t kBulkStreakTrigger = 3;
  static constexpr uint32_t kBulkSpanInitial = 8;
  std::vector<PositionInfo> positions_;  // one-lane lists' arena
  std::vector<PairRecord> records_;      // two-lane lists' arena
  std::vector<uint32_t> pos_offsets_;
  size_t pos_block_ = SIZE_MAX;  // block_ the arena covers
  size_t pos_from_ = 0;          // first entry index it covers
  size_t pos_to_ = 0;            // one past the last entry it covers
  uint32_t pos_span_ = 0;        // entries of the last span; 0 for one entry
  size_t last_pos_block_ = SIZE_MAX;  // previous GetPositions target
  size_t last_pos_idx_ = SIZE_MAX;
  uint32_t streak_len_ = 0;         // consecutive-entry GetPositions run
  size_t block_ = 0;      // decoded block index (valid when started_)
  size_t idx_ = 0;        // entry index within the decoded block
  bool started_ = false;
  bool exhausted_ = false;
  NodeId node_ = kInvalidNode;
  Status status_;  // sticky first decode/validation error
};

}  // namespace fts

#endif  // FTS_INDEX_BLOCK_POSTING_LIST_H_

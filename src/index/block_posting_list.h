// Block-compressed, skip-seekable posting storage (the v6 index layout).
//
// A BlockPostingList stores one inverted list's (cn, PosList) sequence
// packed into fixed-size blocks (kDefaultBlockSize entries) of
// varint-coded deltas: node ids are delta-coded within a block (first id
// absolute, so every block decodes independently), and positions are coded
// as offset/sentence/paragraph deltas behind a per-entry byte-length, so
// entry headers decode without touching position bytes.
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
// Payload bytes are either owned (built lists) or a string_view slice of
// the index's shared IndexSource (loaded lists — heap buffer or mmap'd
// file region). Loaded lists carry per-block checksums and validate each
// block — checksum plus structure — on its first decode, memoized per
// block; a first-touch failure is reported through the cursor's sticky
// status() and the cursor fails closed.

#ifndef FTS_INDEX_BLOCK_POSTING_LIST_H_
#define FTS_INDEX_BLOCK_POSTING_LIST_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "index/inverted_index.h"

namespace fts {

/// One inverted list (the FTA relation R_token, or IL_ANY). Immutable once
/// built (append-only while building; appends must use strictly increasing
/// node ids).
class BlockPostingList {
 public:
  static constexpr uint32_t kDefaultBlockSize = 128;

  /// Per-block payload encodings (the hybrid format). The builder
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

  /// Process-wide default for whether the builder may emit bitset blocks
  /// (on unless set off; off pins everything to varint — the differential
  /// axis that proves the hybrid format changes no result). Returns the
  /// previous value so tests can restore it.
  static bool SetDenseBlocksEnabledByDefault(bool enabled);
  static bool DenseBlocksEnabledByDefault();

  /// True when any block of this list is bitset-encoded.
  bool has_bitset_blocks() const {
    for (const SkipEntry& s : skips_) {
      if (s.encoding != kEncodingVarint) return true;
    }
    return false;
  }

  explicit BlockPostingList(uint32_t block_size = kDefaultBlockSize)
      : block_size_(block_size == 0 ? kDefaultBlockSize : block_size) {}

  /// Appends one entry; node ids must be strictly increasing. Its positions
  /// are encoded into the pending block's bytes at once. Call Finish()
  /// after the last Append to flush the tail block.
  void Append(NodeId node, std::span<const PositionInfo> positions);

  /// Appends one entry whose `pos_count` positions are already encoded:
  /// `pos_bytes` is an entry's position bytes exactly as another list holds
  /// them (EntryRef::pos_byte_begin/pos_byte_len). Position bytes are
  /// per-entry deltas, independent of the node id, so an entry moves
  /// between lists — under a new id — as a byte copy; the result is what
  /// Append would have produced from the decoded positions. The bytes must
  /// come from a trusted list (built, or fully validated).
  void AppendEncoded(NodeId node, uint32_t pos_count,
                     std::string_view pos_bytes);

  /// Flushes the partially filled tail block, if any, and releases the
  /// builder buffers (the list is typically immutable afterwards; further
  /// Appends still work, reallocating as needed). Idempotent.
  void Finish() {
    FlushPending();
    std::vector<PendingEntry>().swap(pending_);
    std::vector<uint8_t>().swap(pending_bytes_);
  }

  size_t num_entries() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }
  size_t total_positions() const { return total_positions_; }
  uint32_t block_size() const { return block_size_; }
  size_t num_blocks() const { return skips_.size(); }
  const SkipEntry& skip(size_t block) const { return skips_[block]; }
  const std::vector<SkipEntry>& skips() const { return skips_; }

  /// Compressed payload (concatenated block bytes). Built lists own their
  /// bytes; loaded lists borrow a slice of the index's IndexSource (heap
  /// buffer or mmap'd file region), which the owning InvertedIndex keeps
  /// alive.
  std::string_view data() const {
    return view_.data() != nullptr ? view_ : std::string_view(owned_);
  }

  /// Compressed footprint: payload plus the varint-coded max_node,
  /// byte_offset and entry_count of each skip entry (the on-disk directory
  /// adds a checksum, max_tf and encoding tag per block).
  size_t byte_size() const;

  /// Resident heap footprint of this list in bytes (owned payload + skip
  /// table + validation bookkeeping capacities). This is what the list
  /// costs while the index is loaded — the memory-accounting input of
  /// InvertedIndex::MemoryUsage(). Payload bytes borrowed from an
  /// IndexSource are charged to the source, not to the list.
  size_t resident_bytes() const {
    return owned_.capacity() + skips_.capacity() * sizeof(SkipEntry) +
           block_checksums_.capacity() * sizeof(uint32_t) +
           (block_verified_ != nullptr ? skips_.size() : 0) +
           pending_.capacity() * sizeof(PendingEntry) +
           pending_bytes_.capacity();
  }

  /// One decoded entry header plus the location of its (still compressed)
  /// position bytes within data().
  struct EntryRef {
    PostingEntry header;      // node + pos_count (pos_begin unused)
    uint32_t pos_byte_begin;  // offset of the entry's position bytes
    uint32_t pos_byte_len;    // length of the entry's position bytes
  };

  /// Decodes block `block` into `entries`/`positions` (replacing their
  /// contents; entries' pos_begin index into `positions`). Returns
  /// Corruption on malformed payload bytes.
  Status DecodeBlock(size_t block, std::vector<PostingEntry>* entries,
                     std::vector<PositionInfo>* positions) const;

  /// Decodes only block `block`'s entry headers (node ids, position
  /// counts), skipping position bytes entirely. Under first-touch
  /// validation this additionally verifies the block's payload checksum
  /// and structural invariants on its first decode and memoizes success
  /// per block, so the bulk-decode hot path and the DecodedBlockCache pay
  /// the checksum once per block per index lifetime. `counters`, when
  /// non-null, is charged simd_groups_decoded for each bulk group decode
  /// the dispatched SIMD arm performed.
  Status DecodeBlockEntries(size_t block, std::vector<EntryRef>* entries,
                            EvalCounters* counters = nullptr) const;

  /// Decodes the PosList of one entry previously returned by
  /// DecodeBlockEntries (replacing `positions`).
  Status DecodePositions(const EntryRef& entry,
                         std::vector<PositionInfo>* positions,
                         EvalCounters* counters = nullptr) const;

  /// Decodes the PosLists of every entry in `refs[from..to)` — a slice of
  /// one decoded block's entries — in a single pass: the regions must tile
  /// back to back (true by construction for bitset blocks, whose layout
  /// concatenates all position bytes exactly so this pass can run the
  /// dispatched group decoder at full width instead of stopping at every
  /// ~17-byte entry boundary). On success `positions` holds the
  /// concatenated PosLists and `offsets[i]`/`offsets[i+1]` bound entry
  /// `from + i`'s slice. Returns non-OK on any structural anomaly without
  /// any partial contract: callers fall back to the per-entry
  /// DecodePositions path, whose exact first-touch checks re-surface the
  /// same Corruption. `delta_scratch` is caller-owned reusable scratch.
  Status DecodeBlockPositionsBulk(std::span<const EntryRef> refs, size_t from,
                                  size_t to,
                                  std::vector<uint32_t>* delta_scratch,
                                  std::vector<PositionInfo>* positions,
                                  std::vector<uint32_t>* offsets,
                                  EvalCounters* counters = nullptr) const;

  /// Reassembles a list whose payload is a borrowed slice of an
  /// IndexSource (the load path). `checksums` is the per-block FNV-1a32
  /// payload checksum table; each block's checksum and structure are
  /// verified on its first decode (memoized — see DecodeBlockEntries).
  /// Eager loads trigger every first decode up front via
  /// InvertedIndex::ValidateBlocks; lazy loads leave them to queries.
  static BlockPostingList FromParts(uint32_t block_size, uint64_t num_entries,
                                    uint64_t total_positions,
                                    std::vector<SkipEntry> skips,
                                    std::string_view data,
                                    std::vector<uint32_t> checksums);

  /// True when block `block` has already passed (or never needs) first-touch
  /// validation. Cursors use the transition to charge
  /// EvalCounters::first_touch_validations.
  bool BlockVerified(size_t block) const {
    return block_verified_ == nullptr ||
           block_verified_[block].load(std::memory_order_acquire) != 0;
  }

  /// Process-unique id of this list, stable across moves (the moved-to list
  /// keeps the id; a moved-from list is dead). Decoded-block caches key on
  /// (uid, block) instead of the object address so that once a segment
  /// generation retires and its heap is reused, a new list at the same
  /// address can never be served another list's cached blocks. Uids are
  /// never reused within a process.
  uint64_t uid() const { return uid_; }

 private:
  /// Records a pending entry whose position bytes were just appended to
  /// pending_bytes_ from `byte_begin` on.
  void AppendPending(NodeId node, uint32_t pos_count, size_t byte_begin);
  void FlushPending();
  void FlushPendingBitset(SkipEntry* skip);
  Status DecodeBitsetBlock(size_t block, const SkipEntry& skip,
                           std::string_view payload, size_t end,
                           std::vector<EntryRef>* entries,
                           EvalCounters* counters) const;
  static uint64_t NextUid();

  uint32_t block_size_;
  /// Whether FlushPending may classify blocks as dense (bitset-encoded).
  bool dense_enabled_ = DenseBlocksEnabledByDefault();
  uint64_t uid_ = NextUid();
  size_t num_entries_ = 0;
  size_t total_positions_ = 0;
  /// Built lists own their payload here; loaded lists leave it empty and
  /// set view_ instead.
  std::string owned_;
  /// Borrowed payload slice into the owning index's IndexSource.
  std::string_view view_;
  std::vector<SkipEntry> skips_;
  /// Per-block payload checksums (FNV-1a32); empty for built lists.
  std::vector<uint32_t> block_checksums_;
  /// First-touch validation memo, one flag per block; null for built lists,
  /// whose blocks are trusted. Atomic so
  /// concurrent read-only queries over a shared index may race benignly on
  /// the memo without UB.
  mutable std::unique_ptr<std::atomic<uint8_t>[]> block_verified_;

  // Entries accumulated for the block currently being built; each one's
  // encoded position bytes are pending_bytes_[pos_byte_begin, +pos_byte_len).
  struct PendingEntry {
    NodeId node;
    uint32_t pos_count;
    uint32_t pos_byte_begin;
    uint32_t pos_byte_len;
  };
  std::vector<PendingEntry> pending_;
  std::vector<uint8_t> pending_bytes_;
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
  /// engines above see only live nodes (docs/ingestion.md).
  explicit BlockListCursor(const BlockPostingList* list,
                           EvalCounters* counters = nullptr,
                           DecodedBlockCache* cache = nullptr,
                           const TombstoneSet* tombstones = nullptr)
      : list_(list), counters_(counters), cache_(cache),
        tombstones_(tombstones) {}

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

  /// PosList of the current entry (decoded on first call per entry); the
  /// cursor must be on an entry. Returns an empty span (and sets status())
  /// if the position bytes fail first-touch validation. Serving from the
  /// whole-block bulk arena is inlined (two loads); everything else —
  /// per-entry decode, streak detection, the bulk decode itself — is
  /// out of line.
  std::span<const PositionInfo> GetPositions() {
    if (bulk_block_ == block_ && idx_ >= bulk_from_ && idx_ < bulk_to_) {
      const size_t rel = idx_ - bulk_from_;
      return {bulk_positions_.data() + bulk_offsets_[rel],
              bulk_offsets_[rel + 1] - bulk_offsets_[rel]};
    }
    return GetPositionsSlow();
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

  const BlockPostingList* list_;
  EvalCounters* counters_;
  DecodedBlockCache* cache_;
  const TombstoneSet* tombstones_ = nullptr;
  /// Current block's decoded headers: points into `arena_` (uncached) or
  /// into `cached_` (cache-served; the shared_ptr keeps it alive across
  /// eviction).
  const std::vector<BlockPostingList::EntryRef>* entries_ = nullptr;
  std::vector<BlockPostingList::EntryRef> arena_;  // reusable decode arena
  std::shared_ptr<const DecodedBlock> cached_;
  std::vector<PositionInfo> positions_;  // lazily decoded, current entry only
  size_t positions_for_ = SIZE_MAX;      // idx_ the cache was decoded for
  /// Bulk position arena: when GetPositions is called for
  /// kBulkStreakTrigger consecutive entries of one bitset block — the
  /// signature of a positions-heavy walk — a bounded span of the block's
  /// following PosLists decodes in one contiguous SIMD pass into these
  /// (offsets_[rel]..offsets_[rel+1] slice per entry). Spans start small
  /// and double each time the walk crosses bulk_to_: a full-block walk
  /// converges to a handful of wide decodes, while an adaptive zig-zag
  /// that streaks briefly and then skips away wastes at most one small
  /// span — measured on the fig6/fig8 predicate workloads, whose streaks
  /// run ~2 entries, a 2-entry trigger with unbounded spans cost ~20%.
  /// Selective access never triggers it, keeping per-entry laziness for
  /// one-match-per-block patterns.
  static constexpr uint32_t kBulkStreakTrigger = 3;
  static constexpr uint32_t kBulkSpanInitial = 8;
  std::vector<PositionInfo> bulk_positions_;
  std::vector<uint32_t> bulk_offsets_;
  std::vector<uint32_t> delta_scratch_;
  size_t bulk_block_ = SIZE_MAX;    // block_ the bulk arena covers
  size_t bulk_from_ = 0;            // first entry index it covers
  size_t bulk_to_ = 0;              // one past the last entry it covers
  uint32_t bulk_span_ = 0;          // entries the last bulk decode took
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

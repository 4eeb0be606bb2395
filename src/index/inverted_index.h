// Inverted index: the physical data model of paper Section 5.1.2.
//
// For each token `tok` appearing in the corpus there is an inverted list
// IL_tok of entries (cn, PosList), ordered by context-node id, with PosList
// ordered by position. IL_ANY holds every position of every node. Lists are
// accessed strictly sequentially through cursors that expose exactly the
// two operations the paper's cost model allows: nextEntry() and
// getPositions(), both O(1) amortized.
//
// The only *resident* list representation is the block-compressed,
// skip-seekable BlockPostingList (index/block_posting_list.h): every engine
// — the BOOL merges, the pipelined PPRED/NPRED cursors, materialized COMP
// scans, and the scoring models — reads through BlockListCursor, with df
// and entry counts served from block headers and positions decoded lazily.
// The raw random-access PostingList below survives only as a build/load
// transient and as the oracle representation for differential tests
// (RawPostingOracle); an InvertedIndex never holds one.
//
// The index is self-contained (owns its dictionary and statistics) so it can
// be serialized and queried without the originating Corpus.

#ifndef FTS_INDEX_INVERTED_INDEX_H_
#define FTS_INDEX_INVERTED_INDEX_H_

#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "text/document.h"

namespace fts {

class TombstoneSet;  // index/tombstone_set.h

/// One (cn, PosList) pair of an inverted list. Positions live in the owning
/// PostingList's shared arena; the entry stores the [pos_begin, pos_begin +
/// pos_count) slice.
struct PostingEntry {
  NodeId node = kInvalidNode;
  uint32_t pos_begin = 0;
  uint32_t pos_count = 0;
};

/// An inverted list in raw random-access form: entries sorted by node id,
/// positions sorted by offset within each entry. Corresponds to the FTA
/// relation R_token (and IL_ANY for the ANY list). This form is never
/// resident in an InvertedIndex — it exists as a build/serialization
/// transient and as the differential-test oracle representation.
class PostingList {
 public:
  size_t num_entries() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const PostingEntry& entry(size_t i) const { return entries_[i]; }

  /// The PosList of `e`. Valid as long as this list is alive.
  std::span<const PositionInfo> positions(const PostingEntry& e) const {
    return {positions_.data() + e.pos_begin, e.pos_count};
  }

  /// Total positions across all entries.
  size_t total_positions() const { return positions_.size(); }

  /// Appends an entry; nodes must be appended in strictly increasing order
  /// with offsets strictly increasing inside the entry (checked by builder).
  void Append(NodeId node, std::span<const PositionInfo> positions);

 private:
  std::vector<PostingEntry> entries_;
  std::vector<PositionInfo> positions_;
};

/// Sequential cursor over a raw PostingList (paper Section 5.1.2). All
/// accesses are counted into `counters` (if provided) so engines report the
/// exact number of sequential list operations performed. Production engines
/// read BlockListCursor instead; this cursor drives the raw-oracle side of
/// differential tests through the very same engine code.
class ListCursor {
 public:
  /// `list` may be null (empty token): the cursor is immediately exhausted.
  /// `tombstones`, when non-null, filters deleted entries: the cursor skips
  /// tombstoned node ids and never rests on one, mirroring
  /// BlockListCursor's filtering so both sides of a differential run see
  /// identical live streams.
  explicit ListCursor(const PostingList* list, EvalCounters* counters = nullptr,
                      const TombstoneSet* tombstones = nullptr)
      : list_(list), counters_(counters), tombstones_(tombstones) {}

  /// Advances to the next entry and returns its node id, or kInvalidNode
  /// when the list is exhausted. The first call lands on the first entry.
  NodeId NextEntry();

  /// Positions the cursor on the first entry with node id >= `target` and
  /// returns that id (kInvalidNode if none remains). Starts the cursor if
  /// needed; backward seeks do not move it. This is outside the paper's
  /// sequential cost model: the binary-search probes are charged to
  /// EvalCounters::skip_checks and only the landing entry to
  /// entries_scanned (see BlockListCursor for the compressed analogue).
  NodeId SeekEntry(NodeId target);

  /// PosList of the current entry; NextEntry() must have returned a node.
  std::span<const PositionInfo> GetPositions();

  /// Position count of the current entry without reading the PosList.
  uint32_t pos_count() const { return list_->entry(idx_).pos_count; }

  /// Node id of the current entry (kInvalidNode before first NextEntry()
  /// or after exhaustion).
  NodeId current_node() const { return node_; }

  bool exhausted() const { return exhausted_; }

  /// Raw lists are in-memory and never fail to decode; provided so the
  /// engines' templated merge code can check cursor status uniformly with
  /// BlockListCursor (whose first-touch decodes can surface Corruption).
  const Status& status() const {
    static const Status kOk;
    return kOk;
  }

 private:
  NodeId NextEntryUnfiltered();
  NodeId SeekEntryUnfiltered(NodeId target);

  const PostingList* list_;
  EvalCounters* counters_;
  const TombstoneSet* tombstones_ = nullptr;
  size_t idx_ = 0;
  bool started_ = false;
  bool exhausted_ = false;
  NodeId node_ = kInvalidNode;
};

/// Raw-representation oracle table for differential tests — defined in
/// testing/raw_posting_oracle.h; engines hold only a pointer to one.
struct RawPostingOracle;

/// Corpus shape parameters from the paper's complexity model (Section 5.1.2
/// and Section 6.2). Max values are the conservative parameters used in the
/// complexity bounds; averages are reported for context.
struct IndexStats {
  uint64_t cnodes = 0;               ///< |N|
  uint64_t total_positions = 0;      ///< sum of node lengths
  uint32_t pos_per_cnode = 0;        ///< max positions in a node
  uint32_t entries_per_token = 0;    ///< max entries in a token list
  uint32_t pos_per_entry = 0;        ///< max positions in a list entry
  double avg_pos_per_cnode = 0;
  double avg_entries_per_token = 0;
  double avg_pos_per_entry = 0;

  std::string ToString() const;
};

class BlockPostingList;  // index/block_posting_list.h
class IndexSource;       // index/index_source.h
class PairIndex;         // index/pair_index.h

/// Where a loaded index's posting payload bytes live (see
/// index/index_source.h and docs/index_format.md for the full matrix).
enum class IndexStorage {
  /// Lists own their bytes (built in memory).
  kOwned,
  /// Lists view into one shared heap buffer (LoadIndexFromString, eager
  /// LoadIndexFromFile).
  kHeapBuffer,
  /// Lists view into an mmap'd read-only file region; block payloads are
  /// page-cache resident and fault in on first decode.
  kMapped,
};

/// Immutable inverted index over a corpus. Build with IndexBuilder; persist
/// with SaveIndex/LoadIndex (index/index_io.h).
///
/// Every list is resident exclusively in its block-compressed,
/// skip-seekable form (BlockPostingList). Engines in both cursor modes read
/// through BlockListCursor — kSequential is plain NextEntry() iteration
/// over the decoded blocks, kSeek additionally uses the skip tables — and
/// document frequencies come from the block headers without decoding any
/// payload. There is no decoded mirror: raw PostingLists exist only as
/// build/load transients and as the differential-test oracle.
class InvertedIndex {
 public:
  InvertedIndex();
  ~InvertedIndex();
  InvertedIndex(InvertedIndex&&) noexcept;
  InvertedIndex& operator=(InvertedIndex&&) noexcept;

  /// Block-compressed list for a token id; nullptr if out of range (OOV
  /// tokens have empty, not missing, semantics: queries on them match
  /// nothing).
  const BlockPostingList* block_list(TokenId token) const;

  /// Block-compressed list by token text (normalized spelling); nullptr if
  /// OOV.
  const BlockPostingList* block_list_for_text(std::string_view token) const;

  /// Block-compressed IL_ANY: one entry per context node holding all its
  /// positions.
  const BlockPostingList& block_any_list() const;

  /// Dictionary lookups.
  TokenId LookupToken(std::string_view token) const;
  const std::string& token_text(TokenId id) const { return token_texts_[id]; }
  size_t vocabulary_size() const { return token_texts_.size(); }

  size_t num_nodes() const { return stats_.cnodes; }
  const IndexStats& stats() const { return stats_; }

  /// Document frequency of `token`: number of nodes containing it. Served
  /// from the block-list header — no block payload is decoded.
  uint32_t df(TokenId token) const;

  /// Number of distinct tokens in node `n` (TF-IDF normalization input).
  uint32_t unique_tokens(NodeId n) const { return unique_tokens_[n]; }

  /// L2 norm of node `n`'s TF-IDF vector (||n||_2 in paper Section 3.1).
  double node_norm(NodeId n) const { return node_norms_[n]; }

  /// Minimum over all nodes of max(1, unique_tokens(n)) * node_norm(n) —
  /// the smallest denominator any TF-IDF LeafScore can see. Score models
  /// divide by it to turn a block's max_tf into a sound per-block impact
  /// upper bound. +infinity for an empty index (no node, no bound needed).
  double min_uniq_norm() const { return min_uniq_norm_; }

  /// Resident heap footprint of the index in bytes: compressed posting
  /// payloads (owned or in the heap source buffer) + skip tables +
  /// dictionary + per-node scalars. Counted from container capacities, so
  /// it reflects what the process actually holds. Mmap'd payload bytes are
  /// NOT included — they are page-cache backed and reclaimable; see
  /// MappedBytes().
  size_t MemoryUsage() const;

  /// Where the posting payload bytes live.
  IndexStorage storage() const;

  /// Size of the mmap'd file region backing this index (0 unless
  /// storage() == kMapped).
  size_t MappedBytes() const;

  /// True when per-block validation is deferred to first decode (lazy mmap
  /// loads) rather than performed at load time.
  bool lazy_validation() const { return lazy_validation_; }

  /// Auxiliary (frequent-term, other-term) pair lists for fast phrase and
  /// NEAR/k evaluation (index/pair_index.h), or nullptr when the index was
  /// built (or loaded) without them — the planner then always uses the
  /// position pipeline.
  const PairIndex* pair_index() const { return pair_index_.get(); }

 private:
  friend class IndexBuilder;
  friend struct IndexIoAccess;  // index_io.cc loaders

  /// Fully validates every resident block list by streaming a decode of all
  /// entry headers and position payloads (transient, O(block) memory):
  /// node ids must increase across blocks and the decoded entry/position
  /// totals must match the list headers. Returns Corruption on any
  /// malformed payload, so cursors never see invalid bytes at query time.
  Status ValidateBlocks() const;

  /// Refreshes min_uniq_norm_ from the per-node scalar tables; called by
  /// the loaders after parsing the scalar section.
  void RecomputeMinUniqNorm();

  std::vector<BlockPostingList> block_lists_;          // indexed by TokenId
  std::unique_ptr<BlockPostingList> block_any_list_;   // compressed IL_ANY
  std::unique_ptr<PairIndex> pair_index_;              // nullable
  std::vector<std::string> token_texts_;    // TokenId -> spelling
  std::unordered_map<std::string, TokenId> token_ids_;
  std::vector<uint32_t> unique_tokens_;     // NodeId -> distinct token count
  std::vector<double> node_norms_;          // NodeId -> ||n||_2
  double min_uniq_norm_ = std::numeric_limits<double>::infinity();
  IndexStats stats_;
  /// Byte storage the lists' data() views borrow from (null when every
  /// list owns its bytes). Shared so moves/loans never dangle.
  std::shared_ptr<IndexSource> source_;
  bool lazy_validation_ = false;
};

class TombstoneSet;  // index/tombstone_set.h

/// The TF-IDF norm pass shared by IndexBuilder (local statistics) and
/// IndexSnapshot (snapshot-global ones): ||n||_2 = sqrt(sum_t (tf(n,t) *
/// idf(t))^2) with the paper's tf = occurs/unique_tokens and idf = ln(1 +
/// num_docs/df[t]), df indexed by `index`'s token ids. Reads list headers
/// only (no position bytes). The sum runs in *sorted token text* order — a
/// canonical order independent of dictionary interning — so every node
/// adds the same terms in the same order wherever the same logical corpus
/// is indexed; that is what keeps multi-segment and sharded scores
/// bit-identical to a single-shot build. Tokens with df 0 and nodes in
/// `dead` (nullable) contribute nothing; dead and empty nodes get the
/// neutral norm 1.0. `*min_uniq_norm` receives the minimum over live nodes
/// of max(1, unique_tokens(n)) * norm — the expression TF-IDF LeafScore
/// divides by (+infinity when no node is live).
Status ComputeNodeNorms(const InvertedIndex& index, std::span<const uint32_t> df,
                        uint64_t num_docs, const TombstoneSet* dead,
                        std::vector<double>* norms, double* min_uniq_norm);

}  // namespace fts

#endif  // FTS_INDEX_INVERTED_INDEX_H_

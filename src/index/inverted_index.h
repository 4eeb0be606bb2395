// Inverted index: the physical data model of paper Section 5.1.2.
//
// For each token `tok` appearing in the corpus there is an inverted list
// IL_tok of entries (cn, PosList), ordered by context-node id, with PosList
// ordered by position. IL_ANY holds every position of every node. Lists are
// accessed strictly sequentially through cursors that expose exactly the
// two operations the paper's cost model allows: nextEntry() and
// getPositions(), both O(1) amortized.
//
// The one list representation is the block-compressed, skip-seekable
// BlockPostingList (index/block_posting_list.h): every engine — the BOOL
// merges, the pipelined PPRED/NPRED cursors, materialized COMP scans, and
// the scoring models — reads through BlockListCursor, with df and entry
// counts served from block headers and positions decoded lazily.
//
// The index is self-contained (owns its dictionary and statistics) so it can
// be serialized and queried without the originating Corpus.

#ifndef FTS_INDEX_INVERTED_INDEX_H_
#define FTS_INDEX_INVERTED_INDEX_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "index/block_posting_list.h"
#include "text/document.h"

namespace fts {

class TombstoneSet;  // index/tombstone_set.h

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

/// The scoring statistics of one segment (paper Section 3: document
/// frequency, database size and TF-IDF node norms) — the only record the
/// score models (scoring/) and the planner (eval/planner.h) read. A cheap
/// view: the spans borrow from whoever owns the storage. Every index owns
/// its own record (InvertedIndex::scoring_stats()); a multi-segment,
/// tombstoned or sharded IndexSnapshot owns the snapshot-global records of
/// its segments (index/index_snapshot.h), with global live df and
/// node norms recomputed under global idf, so scores over any snapshot
/// are bit-identical to a single-shot build of the surviving documents.
struct SegmentScoringStats {
  /// Live (non-tombstoned) nodes across the corpus the segment is scored
  /// in — the scoring db_size.
  uint64_t live_nodes = 0;
  /// Live document frequency by this segment's local TokenId.
  std::span<const uint32_t> global_df;
  /// ||n||_2 by local NodeId under these dfs (ComputeNodeNorms).
  std::span<const double> norms;
  /// Minimum over this segment's *live* nodes of max(1, unique_tokens(n))
  /// * norms[n] (MinUniqNorm) — the smallest denominator a TF-IDF
  /// LeafScore over this segment can see. Block-max top-k divides by it to
  /// bound per-block impact; tombstoned nodes are excluded (their norms
  /// are placeholders and they are never scored), which can only raise
  /// the minimum and tighten — never unsound-en — the bound. +infinity
  /// when the segment has no live node.
  double min_uniq_norm = std::numeric_limits<double>::infinity();
  /// Live df by token text, for tokens out of this segment's vocabulary
  /// but live elsewhere (they still contribute idf to a query norm). Token
  /// texts only; scoring is its one reader. Null in an index's own record,
  /// where no other segment exists.
  const std::unordered_map<std::string, uint32_t>* df_by_text = nullptr;

  /// The one idf of paper Section 3.1: ln(1 + live_nodes / df), 0 for a
  /// token with no live occurrence.
  double Idf(uint32_t df) const {
    return df == 0 ? 0.0
                   : std::log(1.0 + static_cast<double>(live_nodes) /
                                        static_cast<double>(df));
  }
};

class IndexSource;       // index/index_source.h
class PairIndex;         // index/pair_index.h
struct PairIndexOptions;  // index/pair_index.h

/// Immutable inverted index over a corpus. Build with IndexBuilder; persist
/// with SaveIndex/LoadIndex (index/index_io.h).
///
/// Every list is resident exclusively in its block-compressed,
/// skip-seekable form (BlockPostingList). Engines in both cursor modes read
/// through BlockListCursor — kSequential is plain NextEntry() iteration
/// over the decoded blocks, kSeek additionally uses the skip tables — and
/// document frequencies come from the block headers without decoding any
/// payload. There is no decoded mirror.
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

  /// Document frequency of `token`: number of nodes containing it (0 out
  /// of range). Read from the df table the list headers filled — no block
  /// payload is decoded.
  uint32_t df(TokenId token) const {
    return token < df_.size() ? df_[token] : 0;
  }

  /// Number of distinct tokens in node `n` (TF-IDF normalization input).
  uint32_t unique_tokens(NodeId n) const { return unique_tokens_[n]; }

  /// L2 norm of node `n`'s TF-IDF vector (||n||_2 in paper Section 3.1).
  double node_norm(NodeId n) const { return node_norms_[n]; }

  /// This index's own scoring record, in O(1): every node is live and the
  /// dfs are its own, so these *are* the global statistics whenever the
  /// index is scored alone. Views into the index; valid while it lives.
  SegmentScoringStats scoring_stats() const {
    return {.live_nodes = num_nodes(),
            .global_df = df_,
            .norms = node_norms_,
            .min_uniq_norm = min_uniq_norm_};
  }

  /// Resident heap footprint of the index in bytes: compressed posting
  /// payloads (the built payload store or the heap source buffer) + list
  /// records and per-block arrays + dictionary + per-node scalars. Counted
  /// from container capacities, except a built store's payload, counted by
  /// the bytes written (PostingStore::MemoryUsage), so it reflects what the
  /// process actually holds. Mmap'd payload bytes are NOT included — they
  /// are page-cache backed and reclaimable; see MappedBytes().
  size_t MemoryUsage() const;

  /// Lists resident in the index: token lists, IL_ANY and pair lists.
  size_t num_lists() const;

  /// Size of the mmap'd file region backing this index (0 unless it was
  /// loaded with LoadOptions::Mode::kMmap).
  size_t MappedBytes() const;

  /// Auxiliary (frequent-term, other-term) pair lists for fast phrase and
  /// NEAR/k evaluation (index/pair_index.h), or nullptr when the index was
  /// built (or loaded) without them — the planner then always uses the
  /// position pipeline.
  const PairIndex* pair_index() const { return pair_index_.get(); }

 private:
  friend class IndexBuilder;
  friend struct IndexIoAccess;  // index_io.cc loaders
  friend struct SegmentMergerAccess;  // segment_merger.cc

  /// The last pass of every build and merge, once the lists hold their
  /// entries and unique_tokens_ has one slot per node: derives IndexStats
  /// and the df table from the list headers and runs ComputeNodeNorms
  /// under the index's own dfs. Fails only if a list fails to decode.
  Status FinishLists();

  /// Builds the pair lists over `docs` (this index's token ids, one per
  /// node) when opts.frequent_terms > 0; keeps none when nothing pairs.
  void BuildPairIndex(std::span<const TokenizedDocument> docs,
                      const PairIndexOptions& opts);

  /// The token lists by TokenId, then IL_ANY (lists_.list(vocab)).
  PostingStore lists_;
  std::unique_ptr<PairIndex> pair_index_;   // nullable
  std::vector<std::string> token_texts_;    // TokenId -> spelling
  std::unordered_map<std::string, TokenId> token_ids_;
  std::vector<uint32_t> df_;                // TokenId -> df (list headers)
  std::vector<uint32_t> unique_tokens_;     // NodeId -> distinct token count
  std::vector<double> node_norms_;          // NodeId -> ||n||_2
  double min_uniq_norm_ = std::numeric_limits<double>::infinity();
  IndexStats stats_;
  /// The loaded bytes the lists' data() views borrow from (null for a
  /// built index, whose lists view lists_'s own buffer). Shared so
  /// moves/loans never dangle.
  std::shared_ptr<IndexSource> source_;
};

/// The TF-IDF norm pass shared by IndexBuilder and MergeSegments (an
/// index's own record) and IndexSnapshot (snapshot-global ones, a shard's
/// under the router's global df included): ||n||_2 = sqrt(sum_t (tf(n,t) *
/// idf(t))^2) with the paper's tf = occurs/unique_tokens and idf =
/// stats->Idf(stats->global_df[t]), computed as the exact, order-free sum
/// scoring/score_model.h defines (NormWeight, NormTerm, NodeNorm). Reads
/// entry headers only (no position bytes). Because the sum is exact, the
/// norm of a node is the same wherever its live document is indexed — one
/// segment or several, merged, sharded, interned in any token order, on
/// any number of workers — which is what keeps multi-segment and sharded
/// scores bit-identical to a single-shot build. The pass runs on
/// WorkersFor(total positions) workers (index/build_workers.h), each
/// summing token chunks balanced by entries into accumulators of its own,
/// merged by integer addition. Tokens with df 0 and nodes in `dead`
/// (nullable) contribute nothing; dead and empty nodes get the neutral
/// norm 1.0. Fills `*norms`, points stats->norms at it and sets
/// stats->min_uniq_norm (MinUniqNorm). Fails only if a block fails to
/// decode.
Status ComputeNodeNorms(const InvertedIndex& index, const TombstoneSet* dead,
                        std::vector<double>* norms,
                        SegmentScoringStats* stats);

/// Minimum over the nodes of `index` not in `dead` (nullable) of max(1,
/// unique_tokens(n)) * norms[n] — the expression TF-IDF LeafScore divides
/// by, computed identically so the minimum is an exact lower bound on any
/// denominator and the derived impact bounds are sound under IEEE
/// rounding. +infinity when no node is live. ComputeNodeNorms ends with
/// it; the loaders run it over the stored norms.
double MinUniqNorm(const InvertedIndex& index, std::span<const double> norms,
                   const TombstoneSet* dead);

}  // namespace fts

#endif  // FTS_INDEX_INVERTED_INDEX_H_

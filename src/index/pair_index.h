// Auxiliary (frequent-term, other-term) pair-key posting lists —
// Veretennikov's additional-index technique (arXiv:1812.07640) adapted to
// the block-posting architecture (docs/pair_index.md).
//
// Frequent-term phrase and NEAR/k queries are the position pipeline's
// classic worst case: both driver lists are huge and almost every decoded
// position is discarded by the distance predicate. A PairIndex stores, for
// the top-f most frequent terms, one auxiliary posting list per observed
// (frequent_term, other_term) pair. Each list entry is keyed by node id
// and carries every co-occurrence of the two terms within the configured
// distance window, so a phrase/NEAR operator over such a pair becomes a
// single skip-seekable list read whose length is the *result* size, not
// the driver-list size.
//
// Physically the pair lists are ordinary BlockPostingLists reusing the
// position-triple codec: entry positions[0] packs the two per-node term
// frequencies (needed to reproduce pipeline scores exactly), and each
// later triple is one co-occurrence record (offset of the key's first
// term, zig-zag-encoded signed offset delta to the second term, 0). The
// position codec encodes unsigned wrap-around deltas and never assumes
// monotonicity on decode, so arbitrary record streams round-trip
// losslessly — and the pair lists inherit varint/SIMD/hybrid block decode,
// per-block checksums, mmap loading with first-touch validation, and both
// block-cache levels for free. On disk they live in an optional v7 section
// (docs/index_format.md); a file without the section simply has the
// feature off.
//
// Soundness contract consumed by the planner (src/eval/pair_plan.h): a
// list stores *every* co-occurrence with |offset delta| <= max_distance+1,
// so for a query distance k <= max_distance the pair list is a complete
// substitute for the position pipeline — and an eligible pair whose key is
// absent provably matches nothing.

#ifndef FTS_INDEX_PAIR_INDEX_H_
#define FTS_INDEX_PAIR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/block_posting_list.h"
#include "text/document.h"

namespace fts {

class InvertedIndex;

/// Build-time knobs; part of IndexBuildOptions (index/index_builder.h).
struct PairIndexOptions {
  /// Number of top-df terms to treat as frequent; 0 disables the pair
  /// index entirely (the default — building pair lists costs index size).
  size_t frequent_terms = 0;
  /// Largest NEAR/k distance the pair lists answer; records are stored for
  /// |offset delta| <= max_distance + 1, matching the distance predicate's
  /// `|off1 - off0| <= k + 1` convention, so max_distance = 0 is exactly a
  /// phrase (adjacent-pair) index. Values above PairIndex::kMaxDistance
  /// build as kMaxDistance; larger query distances run on the pipeline.
  uint32_t max_distance = 5;
};

/// Canonical key of one pair list: `first` is the side that ranks higher
/// in the frequent-term list (lower rank number = more frequent); `second`
/// is the other term (frequent or not). first != second always.
struct PairTermKey {
  TokenId first = kInvalidToken;
  TokenId second = kInvalidToken;

  friend bool operator==(const PairTermKey&, const PairTermKey&) = default;
};

/// Immutable set of auxiliary pair lists attached to an InvertedIndex.
class PairIndex {
 public:
  static constexpr size_t kNotFrequent = static_cast<size_t>(-1);
  /// Largest max_distance a pair index holds: a record's offset delta is a
  /// zig-zag int32, so the window, max_distance + 1, stays within INT32_MAX.
  static constexpr uint32_t kMaxDistance = INT32_MAX - 1;

  /// Builds the pair lists over `docs`, one token-id stream per node of
  /// `index`, in `index`'s token ids. `index` supplies the spellings and
  /// the df ranking (block-list headers) and must already hold the
  /// finished token lists. Returns an empty PairIndex (num_keys() == 0)
  /// when opts.frequent_terms is 0 or nothing co-occurs.
  static PairIndex Build(std::span<const TokenizedDocument> docs,
                         const InvertedIndex& index, const PairIndexOptions& opts);

  uint32_t max_distance() const { return max_distance_; }
  size_t num_frequent() const { return frequent_.size(); }
  const std::vector<TokenId>& frequent_terms() const { return frequent_; }
  size_t num_keys() const { return keys_.size(); }
  const PairTermKey& key(size_t i) const { return keys_[i]; }
  const BlockPostingList& list(size_t i) const { return lists_.list(i); }

  /// Rank of `token` among the frequent terms (0 = most frequent), or
  /// kNotFrequent. Ranking is (df desc, token text asc) — deterministic
  /// for a given logical corpus, so every rebuild of the same documents
  /// canonicalizes keys identically.
  size_t rank(TokenId token) const;

  struct Lookup {
    /// False when neither side is frequent (or a == b): the pair index
    /// cannot answer this pair at any distance.
    bool eligible = false;
    /// True when the stored key is (b, a) — records describe (second,
    /// first) order relative to the query, so the evaluator mirrors
    /// deltas.
    bool swapped = false;
    /// The pair list, or nullptr. With eligible == true a null list means
    /// the two terms never co-occur within max_distance: provably empty.
    const BlockPostingList* list = nullptr;
  };

  /// Resolves query pair (a, b) to its canonical stored list.
  Lookup Find(TokenId a, TokenId b) const;

  /// Zig-zag coding for the signed offset deltas embedded in records.
  static uint32_t ZigZag(int32_t v) {
    return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
  }
  static int32_t UnZigZag(uint32_t v) {
    return static_cast<int32_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  /// Resident heap footprint (same accounting rules as
  /// InvertedIndex::MemoryUsage).
  size_t MemoryUsage() const;

 private:
  friend struct IndexIoAccess;  // index_io.cc (de)serializers

  uint32_t max_distance_ = 0;
  std::vector<TokenId> frequent_;  // rank order
  /// (token, rank) of every frequent term, sorted by token: rank()
  /// binary-searches it (the loader calls it for every key).
  std::vector<std::pair<TokenId, uint32_t>> rank_;
  /// Sorted by (first, second): Find binary-searches it, so a key costs
  /// its 8 bytes plus its list record.
  std::vector<PairTermKey> keys_;
  PostingStore lists_;  // parallel to keys_

  static uint64_t PackKey(TokenId first, TokenId second) {
    return (static_cast<uint64_t>(first) << 32) | second;
  }

  /// rank_'s table for `frequent` (rank order). A token listed twice
  /// yields two adjacent entries, which the loader rejects.
  static std::vector<std::pair<TokenId, uint32_t>> SortedRanks(
      std::span<const TokenId> frequent);
};

}  // namespace fts

#endif  // FTS_INDEX_PAIR_INDEX_H_

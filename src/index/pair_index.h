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
// block-cache levels for free. On disk they live in an optional v6 section
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
#include <string>
#include <string_view>
#include <unordered_map>
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
  /// phrase (adjacent-pair) index.
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
  const BlockPostingList& list(size_t i) const { return lists_[i]; }

  /// Rank of `token` among the frequent terms (0 = most frequent), or
  /// kNotFrequent. Ranking is (df desc, token text asc) — deterministic
  /// for a given logical corpus, so every rebuild of the same documents
  /// canonicalizes keys identically.
  size_t rank(TokenId token) const {
    auto it = rank_.find(token);
    return it == rank_.end() ? kNotFrequent : it->second;
  }

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

  /// Key under which this pair's df travels in the cross-shard df_by_text
  /// exchange (docs/serving.md). The separator byte cannot appear in
  /// tokenizer output, so pair keys can never collide with real tokens —
  /// and scoring only ever looks up real token texts, so the extra map
  /// entries are inert there.
  static std::string StatsKey(std::string_view first, std::string_view second) {
    std::string out;
    out.reserve(first.size() + second.size() + 1);
    out.append(first);
    out.push_back('\x1f');
    out.append(second);
    return out;
  }

  /// Resident heap footprint (same accounting rules as
  /// InvertedIndex::MemoryUsage).
  size_t MemoryUsage() const;

  /// Streams a full decode of every pair list, checking node-id
  /// monotonicity, node range, record well-formedness (the packed tf
  /// header plus at least one record per entry), and header totals.
  /// `cnodes` bounds the node ids, as in InvertedIndex::ValidateBlocks.
  Status Validate(uint64_t cnodes) const;

 private:
  friend struct IndexIoAccess;  // index_io.cc (de)serializers

  uint32_t max_distance_ = 0;
  std::vector<TokenId> frequent_;               // rank order
  std::unordered_map<TokenId, size_t> rank_;    // token -> rank
  std::vector<PairTermKey> keys_;               // sorted (first, second)
  std::vector<BlockPostingList> lists_;         // parallel to keys_
  std::unordered_map<uint64_t, size_t> slots_;  // packed key -> index

  static uint64_t PackKey(TokenId first, TokenId second) {
    return (static_cast<uint64_t>(first) << 32) | second;
  }

  /// Rebuilds rank_ and slots_ from frequent_/keys_ (loader path).
  void RebuildLookups();
};

}  // namespace fts

#endif  // FTS_INDEX_PAIR_INDEX_H_

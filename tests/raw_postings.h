// Raw random-access posting lists: the uncompressed reference the
// cursor-level tests compare BlockPostingList and BlockListCursor with.
//
// A PostingList holds one inverted list as plain entry and position
// arrays; ListCursor walks it with the paper's sequential API plus a
// linear SeekEntry, written to be obviously correct rather than fast.
// BuildRawPostingOracle derives every list of a corpus straight from its
// tokenized documents, without the index builder. FromPostingList
// compresses one into a standalone OwnedBlockList (a block list plus the
// one-list store it views). Header-only: every tests/*.cc file builds its
// own test binary.

#ifndef FTS_TESTS_RAW_POSTINGS_H_
#define FTS_TESTS_RAW_POSTINGS_H_

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "index/block_posting_list.h"
#include "index/inverted_index.h"
#include "text/corpus.h"

namespace fts {

/// An inverted list in raw form: entries sorted by node id, positions
/// sorted by offset within each entry.
class PostingList {
 public:
  size_t num_entries() const { return entries_.size(); }
  const PostingEntry& entry(size_t i) const { return entries_[i]; }

  /// The PosList of `e`. Valid as long as this list is alive.
  std::span<const PositionInfo> positions(const PostingEntry& e) const {
    return {positions_.data() + e.pos_begin, e.pos_count};
  }

  /// Total positions across all entries.
  size_t total_positions() const { return positions_.size(); }

  /// Appends an entry; nodes must be appended in strictly increasing order.
  void Append(NodeId node, std::span<const PositionInfo> positions) {
    entries_.push_back({node, static_cast<uint32_t>(positions_.size()),
                        static_cast<uint32_t>(positions.size())});
    positions_.insert(positions_.end(), positions.begin(), positions.end());
  }

 private:
  std::vector<PostingEntry> entries_;
  std::vector<PositionInfo> positions_;
};

/// Sequential cursor over a PostingList with BlockListCursor's movement
/// semantics: the first NextEntry lands on the first entry, SeekEntry
/// lands on the first entry with node id >= target and never moves
/// backwards, and an exhausted cursor stays exhausted.
class ListCursor {
 public:
  /// `list` may be null: the cursor is immediately exhausted.
  explicit ListCursor(const PostingList* list) : list_(list) {}

  NodeId NextEntry() {
    if (exhausted_) return kInvalidNode;
    idx_ = started_ ? idx_ + 1 : 0;
    started_ = true;
    return Land();
  }

  NodeId SeekEntry(NodeId target) {
    if (exhausted_) return kInvalidNode;
    if (started_ && list_->entry(idx_).node >= target) return list_->entry(idx_).node;
    size_t i = started_ ? idx_ + 1 : 0;
    while (list_ != nullptr && i < list_->num_entries() &&
           list_->entry(i).node < target) {
      ++i;
    }
    idx_ = i;
    started_ = true;
    return Land();
  }

  /// PosList of the current entry; the cursor must rest on an entry.
  std::span<const PositionInfo> GetPositions() const {
    return list_->positions(list_->entry(idx_));
  }

  bool exhausted() const { return exhausted_; }

 private:
  NodeId Land() {
    if (list_ == nullptr || idx_ >= list_->num_entries()) {
      exhausted_ = true;
      return kInvalidNode;
    }
    return list_->entry(idx_).node;
  }

  const PostingList* list_;
  size_t idx_ = 0;
  bool started_ = false;
  bool exhausted_ = false;
};

/// The raw posting table of a corpus, indexed by the corpus's (and
/// therefore the built index's) token ids.
struct RawPostingOracle {
  std::vector<PostingList> lists;  // indexed by TokenId
  PostingList any_list;            // IL_ANY

  const PostingList* list(TokenId t) const {
    return t < lists.size() ? &lists[t] : nullptr;
  }
};

/// Builds the raw table of `corpus` from its documents: each list carries
/// exactly the entries IndexBuilder::Build encodes into blocks.
inline RawPostingOracle BuildRawPostingOracle(const Corpus& corpus) {
  RawPostingOracle oracle;
  oracle.lists.resize(corpus.vocabulary_size());
  for (NodeId n = 0; n < corpus.num_nodes(); ++n) {
    const TokenizedDocument& doc = corpus.doc(n);
    std::map<TokenId, std::vector<PositionInfo>> occ;
    for (size_t i = 0; i < doc.size(); ++i) {
      occ[doc.tokens[i]].push_back(doc.positions[i]);
    }
    for (const auto& [tok, positions] : occ) oracle.lists[tok].Append(n, positions);
    if (!doc.positions.empty()) oracle.any_list.Append(n, doc.positions);
  }
  return oracle;
}

/// A standalone block list together with the one-list store it views
/// (lists otherwise live in an index's stores). Use it by value or by
/// `auto`: copying it into a plain BlockPostingList keeps a view that
/// dangles once this object goes.
class OwnedBlockList : public BlockPostingList {
 public:
  /// Seals `writer`'s list.
  explicit OwnedBlockList(BlockListWriter writer) {
    store_.Add(std::move(writer));
    store_.Seal();
    BlockPostingList::operator=(store_.list(0));
  }
  /// Adopts a sealed store holding exactly one list.
  explicit OwnedBlockList(PostingStore sealed) : store_(std::move(sealed)) {
    BlockPostingList::operator=(store_.list(0));
  }

 private:
  PostingStore store_;
};

/// Compresses `raw` into a block list of `block_size`-entry blocks.
inline OwnedBlockList FromPostingList(
    const PostingList& raw, uint32_t block_size = BlockPostingList::kDefaultBlockSize) {
  BlockListWriter out(block_size);
  for (size_t i = 0; i < raw.num_entries(); ++i) {
    out.Append(raw.entry(i).node, raw.positions(raw.entry(i)));
  }
  return OwnedBlockList(std::move(out));
}

/// Decodes every block of `list` into raw form. A block that fails to
/// decode fails the calling test (in every build type) and ends the list
/// there.
inline PostingList Materialize(const BlockPostingList& list) {
  PostingList out;
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    const Status s = list.DecodeBlock(b, &entries, &positions);
    if (!s.ok()) {
      ADD_FAILURE() << "DecodeBlock(" << b << ") failed: " << s.ToString();
      break;
    }
    for (const PostingEntry& e : entries) {
      out.Append(e.node, {positions.data() + e.pos_begin, e.pos_count});
    }
  }
  return out;
}

}  // namespace fts

#endif  // FTS_TESTS_RAW_POSTINGS_H_

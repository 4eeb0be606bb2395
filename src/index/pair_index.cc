#include "index/pair_index.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "index/inverted_index.h"

namespace fts {

PairIndex PairIndex::Build(std::span<const TokenizedDocument> docs,
                           const InvertedIndex& index,
                           const PairIndexOptions& opts) {
  PairIndex out;
  out.max_distance_ = opts.max_distance;
  if (opts.frequent_terms == 0) return out;

  // Frequent-term selection: top-f by (df desc, text asc). The text
  // tie-break makes the ranking — and therefore every canonical key
  // orientation — a function of the logical corpus alone, independent of
  // dictionary interning order.
  std::vector<TokenId> cands;
  const size_t vocab = index.vocabulary_size();
  for (TokenId t = 0; t < vocab; ++t) {
    if (index.df(t) > 0) cands.push_back(t);
  }
  std::sort(cands.begin(), cands.end(), [&](TokenId a, TokenId b) {
    const uint32_t dfa = index.df(a), dfb = index.df(b);
    if (dfa != dfb) return dfa > dfb;
    return index.token_text(a) < index.token_text(b);
  });
  if (cands.size() > opts.frequent_terms) cands.resize(opts.frequent_terms);
  out.frequent_ = std::move(cands);

  // The inner loop ranks through a dense TokenId -> rank table; rank_, the
  // hash map queries use, is built with the other lookups at the end.
  constexpr uint32_t kUnranked = static_cast<uint32_t>(-1);
  std::vector<uint32_t> rank(vocab, kUnranked);
  for (size_t r = 0; r < out.frequent_.size(); ++r) {
    rank[out.frequent_[r]] = static_cast<uint32_t>(r);
  }

  // One pass over the documents. Co-occurrences are found by the windowed
  // double loop (offsets are strictly increasing within a document, so the
  // inner loop is bounded by the window's token span). A document's records
  // collect in one flat vector, sorted by (key, offset, signed delta), and
  // each key's run flushes to its building list in node order — exactly
  // the append order BlockPostingList requires. Building lists are
  // addressed through a key -> slot map and sorted by key once at the end.
  struct Record {
    uint64_t key;
    uint32_t offset;
    int32_t delta;
  };
  const uint32_t window = opts.max_distance + 1;
  std::vector<BlockPostingList> building;
  std::vector<uint64_t> building_keys;
  std::unordered_map<uint64_t, uint32_t> slot_of;
  std::vector<Record> recs;
  std::vector<uint32_t> tf(vocab, 0);
  std::vector<PositionInfo> entry;
  for (NodeId n = 0; n < docs.size(); ++n) {
    const TokenizedDocument& doc = docs[n];
    recs.clear();
    for (const TokenId t : doc.tokens) ++tf[t];
    for (size_t i = 0; i < doc.size(); ++i) {
      const uint32_t off_i = doc.positions[i].offset;
      for (size_t j = i + 1;
           j < doc.size() && doc.positions[j].offset - off_i <= window; ++j) {
        const TokenId a = doc.tokens[i], b = doc.tokens[j];
        if (a == b) continue;
        const uint32_t ra = rank[a], rb = rank[b];
        if (ra == kUnranked && rb == kUnranked) continue;
        const uint32_t off_j = doc.positions[j].offset;
        const int32_t gap = static_cast<int32_t>(off_j - off_i);
        if (ra < rb) {
          recs.push_back({PackKey(a, b), off_i, gap});
        } else {
          recs.push_back({PackKey(b, a), off_j, -gap});
        }
      }
    }
    std::sort(recs.begin(), recs.end(), [](const Record& x, const Record& y) {
      return std::tie(x.key, x.offset, x.delta) < std::tie(y.key, y.offset, y.delta);
    });
    for (size_t g = 0; g < recs.size();) {
      const uint64_t key = recs[g].key;
      entry.clear();
      entry.push_back({tf[static_cast<TokenId>(key >> 32)],
                       tf[static_cast<TokenId>(key)], 0});
      for (; g < recs.size() && recs[g].key == key; ++g) {
        entry.push_back({recs[g].offset, ZigZag(recs[g].delta), 0});
      }
      const auto [it, fresh] =
          slot_of.try_emplace(key, static_cast<uint32_t>(building.size()));
      if (fresh) {
        building.emplace_back();
        building_keys.push_back(key);
      }
      building[it->second].Append(n, entry);
    }
    for (const TokenId t : doc.tokens) tf[t] = 0;
  }

  std::vector<uint32_t> order(building.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return building_keys[x] < building_keys[y];
  });
  out.keys_.reserve(order.size());
  out.lists_.reserve(order.size());
  for (const uint32_t slot : order) {
    building[slot].Finish();
    out.keys_.push_back({static_cast<TokenId>(building_keys[slot] >> 32),
                         static_cast<TokenId>(building_keys[slot])});
    out.lists_.push_back(std::move(building[slot]));
  }
  out.RebuildLookups();
  return out;
}

PairIndex::Lookup PairIndex::Find(TokenId a, TokenId b) const {
  Lookup out;
  if (a == b) return out;
  const size_t ra = rank(a), rb = rank(b);
  if (ra == kNotFrequent && rb == kNotFrequent) return out;
  out.eligible = true;
  out.swapped = !(ra < rb);
  const auto it =
      slots_.find(out.swapped ? PackKey(b, a) : PackKey(a, b));
  if (it != slots_.end()) out.list = &lists_[it->second];
  return out;
}

void PairIndex::RebuildLookups() {
  rank_.clear();
  rank_.reserve(frequent_.size());
  for (size_t r = 0; r < frequent_.size(); ++r) rank_.emplace(frequent_[r], r);
  slots_.clear();
  slots_.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    slots_.emplace(PackKey(keys_[i].first, keys_[i].second), i);
  }
}

size_t PairIndex::MemoryUsage() const {
  size_t bytes = sizeof(PairIndex);
  bytes += frequent_.capacity() * sizeof(TokenId);
  bytes += keys_.capacity() * sizeof(PairTermKey);
  bytes += lists_.capacity() * sizeof(BlockPostingList);
  for (const BlockPostingList& l : lists_) bytes += l.resident_bytes();
  bytes += rank_.bucket_count() * sizeof(void*) +
           rank_.size() * (sizeof(std::pair<TokenId, size_t>) + 2 * sizeof(void*));
  bytes += slots_.bucket_count() * sizeof(void*) +
           slots_.size() * (sizeof(std::pair<uint64_t, size_t>) + 2 * sizeof(void*));
  return bytes;
}

Status PairIndex::Validate(uint64_t cnodes) const {
  std::vector<PostingEntry> entries;
  std::vector<PositionInfo> positions;
  for (const BlockPostingList& l : lists_) {
    uint64_t total_entries = 0;
    uint64_t total_positions = 0;
    bool have_prev = false;
    NodeId prev = 0;
    for (size_t b = 0; b < l.num_blocks(); ++b) {
      FTS_RETURN_IF_ERROR(l.DecodeBlock(b, &entries, &positions));
      for (const PostingEntry& e : entries) {
        if (have_prev && e.node <= prev) {
          return Status::Corruption("non-increasing node ids in pair list");
        }
        if (e.node >= cnodes) {
          return Status::Corruption("pair-list node id out of range");
        }
        prev = e.node;
        have_prev = true;
        // Every entry is the packed tf header plus >= 1 record, and every
        // record's delta respects the build window — anything else cannot
        // have come from the builder.
        if (e.pos_count < 2) {
          return Status::Corruption("pair-list entry missing records");
        }
        const PositionInfo& h = positions[e.pos_begin];
        if (h.offset == 0 || h.sentence == 0) {
          return Status::Corruption("pair-list entry has zero term frequency");
        }
        for (uint32_t k = 1; k < e.pos_count; ++k) {
          const int64_t delta =
              UnZigZag(positions[e.pos_begin + k].sentence);
          if (delta == 0 || delta > static_cast<int64_t>(max_distance_) + 1 ||
              delta < -(static_cast<int64_t>(max_distance_) + 1)) {
            return Status::Corruption("pair-list record delta out of window");
          }
        }
      }
      total_entries += entries.size();
      total_positions += positions.size();
    }
    if (total_entries != l.num_entries()) {
      return Status::Corruption("pair-list entry total disagrees with header");
    }
    if (total_positions != l.total_positions()) {
      return Status::Corruption("pair-list position total disagrees with header");
    }
  }
  return Status::OK();
}

}  // namespace fts

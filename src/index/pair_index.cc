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
  out.max_distance_ = std::min(opts.max_distance, kMaxDistance);
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
  // token-sorted table queries binary-search, is kept with the index.
  constexpr uint32_t kUnranked = static_cast<uint32_t>(-1);
  std::vector<uint32_t> rank(vocab, kUnranked);
  for (size_t r = 0; r < out.frequent_.size(); ++r) {
    rank[out.frequent_[r]] = static_cast<uint32_t>(r);
  }
  out.rank_ = SortedRanks(out.frequent_);

  // Collect: one pass over the documents. Co-occurrences are found by the
  // windowed double loop (offsets are strictly increasing within a
  // document, so the inner loop is bounded by the window's token span). A
  // document's records collect in one flat vector, sorted by (key, offset,
  // signed delta); each key's run is one list entry — the packed tf header,
  // then one triple per record — whose position bytes are encoded once
  // into a flat arena, behind one Group naming its key, node and bytes.
  struct Record {
    uint64_t key;
    uint32_t offset;
    int32_t delta;
  };
  struct Group {
    uint64_t key;
    NodeId node;
    uint32_t pos_count;
    uint32_t byte_begin;  // from the node's first arena byte
    uint32_t byte_len;
  };
  const int64_t window = int64_t{out.max_distance_} + 1;
  std::vector<Record> recs;
  std::vector<Group> groups;
  std::vector<uint8_t> arena;
  std::vector<size_t> node_begin(docs.size());  // node's first arena byte
  std::vector<uint32_t> tf(vocab, 0);
  std::vector<PositionInfo> entry;
  for (NodeId n = 0; n < docs.size(); ++n) {
    const TokenizedDocument& doc = docs[n];
    recs.clear();
    for (const TokenId t : doc.tokens) ++tf[t];
    for (size_t i = 0; i < doc.size(); ++i) {
      const uint32_t off_i = doc.positions[i].offset;
      for (size_t j = i + 1;
           j < doc.size() && int64_t{doc.positions[j].offset} - off_i <= window;
           ++j) {
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
    node_begin[n] = arena.size();
    for (size_t g = 0; g < recs.size();) {
      const uint64_t key = recs[g].key;
      entry.clear();
      entry.push_back({tf[static_cast<TokenId>(key >> 32)],
                       tf[static_cast<TokenId>(key)], 0});
      for (; g < recs.size() && recs[g].key == key; ++g) {
        entry.push_back({recs[g].offset, ZigZag(recs[g].delta), 0});
      }
      const size_t begin = arena.size();
      BlockListWriter::EncodePositions(entry, &arena);
      groups.push_back({key, n, static_cast<uint32_t>(entry.size()),
                        static_cast<uint32_t>(begin - node_begin[n]),
                        static_cast<uint32_t>(arena.size() - begin)});
    }
    for (const TokenId t : doc.tokens) tf[t] = 0;
  }

  // Sort: two stable counting passes over token ids, by second and then by
  // first, order the groups by key. Stability keeps each key's groups in
  // node order, the append order BlockListWriter requires, and the lists
  // come out in key order, so the key table is sorted as built.
  {
    std::vector<Group> sorted(groups.size());
    std::vector<size_t> start(vocab + 1);
    for (const int shift : {0, 32}) {
      std::fill(start.begin(), start.end(), 0);
      for (const Group& g : groups) {
        ++start[static_cast<TokenId>(g.key >> shift) + 1];
      }
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (const Group& g : groups) {
        sorted[start[static_cast<TokenId>(g.key >> shift)]++] = g;
      }
      groups.swap(sorted);
    }
  }

  // Write: every key's run goes through one writer into the store, so one
  // list's buffers exist at a time, and are reused for the next.
  size_t num_keys = 0, num_blocks = 0;
  for (size_t g = 0, run = 0; g < groups.size(); ++g) {
    run = g > 0 && groups[g].key == groups[g - 1].key ? run + 1 : 0;
    num_keys += run == 0;
    num_blocks += run % BlockPostingList::kDefaultBlockSize == 0;
  }
  out.keys_.reserve(num_keys);
  out.lists_.Reserve(num_keys, num_blocks, 0);
  const char* bytes = reinterpret_cast<const char*>(arena.data());
  BlockListWriter writer;
  for (size_t g = 0; g < groups.size();) {
    const uint64_t key = groups[g].key;
    for (; g < groups.size() && groups[g].key == key; ++g) {
      const Group& e = groups[g];
      writer.AppendEncoded(
          e.node, e.pos_count,
          {bytes + node_begin[e.node] + e.byte_begin, e.byte_len});
    }
    out.lists_.Add(std::move(writer));
    out.keys_.push_back(
        {static_cast<TokenId>(key >> 32), static_cast<TokenId>(key)});
  }
  // The payload's size was unknown up front; its growth slack goes back
  // once the build's scratch has, so trimming does not raise the peak.
  std::vector<Group>().swap(groups);
  std::vector<uint8_t>().swap(arena);
  out.lists_.ShrinkPayload();
  out.lists_.Seal();
  return out;
}

std::vector<std::pair<TokenId, uint32_t>> PairIndex::SortedRanks(
    std::span<const TokenId> frequent) {
  std::vector<std::pair<TokenId, uint32_t>> ranks;
  ranks.reserve(frequent.size());
  for (size_t r = 0; r < frequent.size(); ++r) {
    ranks.emplace_back(frequent[r], static_cast<uint32_t>(r));
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

size_t PairIndex::rank(TokenId token) const {
  const auto it = std::lower_bound(
      rank_.begin(), rank_.end(), token,
      [](const std::pair<TokenId, uint32_t>& r, TokenId t) { return r.first < t; });
  return it != rank_.end() && it->first == token ? it->second : kNotFrequent;
}

PairIndex::Lookup PairIndex::Find(TokenId a, TokenId b) const {
  Lookup out;
  if (a == b) return out;
  const size_t ra = rank(a), rb = rank(b);
  if (ra == kNotFrequent && rb == kNotFrequent) return out;
  out.eligible = true;
  out.swapped = !(ra < rb);
  const uint64_t key = out.swapped ? PackKey(b, a) : PackKey(a, b);
  const auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const PairTermKey& k, uint64_t v) { return PackKey(k.first, k.second) < v; });
  if (it != keys_.end() && PackKey(it->first, it->second) == key) {
    out.list = &lists_.list(static_cast<size_t>(it - keys_.begin()));
  }
  return out;
}

size_t PairIndex::MemoryUsage() const {
  size_t bytes = sizeof(PairIndex);
  bytes += frequent_.capacity() * sizeof(TokenId);
  bytes += keys_.capacity() * sizeof(PairTermKey);
  bytes += rank_.capacity() * sizeof(rank_[0]);
  bytes += lists_.MemoryUsage();
  return bytes;
}

}  // namespace fts

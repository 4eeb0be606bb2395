#include "index/inverted_index.h"

#include <algorithm>
#include <atomic>

#include "index/block_posting_list.h"
#include "index/build_workers.h"
#include "index/index_source.h"
#include "index/pair_index.h"
#include "index/tombstone_set.h"
#include "scoring/score_model.h"

namespace fts {

InvertedIndex::InvertedIndex() = default;
InvertedIndex::~InvertedIndex() = default;
InvertedIndex::InvertedIndex(InvertedIndex&&) noexcept = default;
InvertedIndex& InvertedIndex::operator=(InvertedIndex&&) noexcept = default;

std::string IndexStats::ToString() const {
  return "cnodes=" + std::to_string(cnodes) +
         " total_positions=" + std::to_string(total_positions) +
         " pos_per_cnode=" + std::to_string(pos_per_cnode) +
         " entries_per_token=" + std::to_string(entries_per_token) +
         " pos_per_entry=" + std::to_string(pos_per_entry) +
         " avg_pos_per_cnode=" + std::to_string(avg_pos_per_cnode) +
         " avg_entries_per_token=" + std::to_string(avg_entries_per_token) +
         " avg_pos_per_entry=" + std::to_string(avg_pos_per_entry);
}

const BlockPostingList* InvertedIndex::block_list(TokenId token) const {
  return token < vocabulary_size() ? &lists_.list(token) : nullptr;
}

const BlockPostingList* InvertedIndex::block_list_for_text(
    std::string_view token) const {
  TokenId id = LookupToken(token);
  return id == kInvalidToken ? nullptr : block_list(id);
}

const BlockPostingList& InvertedIndex::block_any_list() const {
  static const BlockPostingList kEmpty;
  return lists_.size() > vocabulary_size() ? lists_.list(vocabulary_size())
                                           : kEmpty;
}

size_t InvertedIndex::MappedBytes() const {
  return source_ != nullptr && source_->is_mapped() ? source_->size() : 0;
}

size_t InvertedIndex::MemoryUsage() const {
  size_t bytes = sizeof(InvertedIndex);
  // A heap source buffer is resident in full (the lists view into it); an
  // mmap'd source is page-cache backed and excluded (see MappedBytes()).
  if (source_ != nullptr) bytes += source_->resident_bytes();
  bytes += lists_.MemoryUsage();
  // A short string lives inside its object; a longer one holds a heap
  // buffer of capacity + 1 bytes.
  const auto heap_bytes = [](const std::string& t) {
    return t.capacity() > std::string().capacity() ? t.capacity() + 1 : 0;
  };
  bytes += token_texts_.capacity() * sizeof(std::string);
  for (const std::string& t : token_texts_) bytes += heap_bytes(t);
  // Hash-map accounting is approximate: buckets plus one heap node per
  // entry (key string + id + chain pointers).
  bytes += token_ids_.bucket_count() * sizeof(void*);
  for (const auto& [text, id] : token_ids_) {
    bytes += sizeof(std::pair<const std::string, TokenId>) + heap_bytes(text) +
             2 * sizeof(void*);
  }
  bytes += df_.capacity() * sizeof(uint32_t);
  bytes += unique_tokens_.capacity() * sizeof(uint32_t);
  bytes += node_norms_.capacity() * sizeof(double);
  if (pair_index_ != nullptr) bytes += pair_index_->MemoryUsage();
  return bytes;
}

size_t InvertedIndex::num_lists() const {
  return lists_.size() + (pair_index_ != nullptr ? pair_index_->num_keys() : 0);
}

Status InvertedIndex::FinishLists() {
  // Corpus shape statistics (paper Section 5.1.2 parameters). A block's
  // max_tf is its largest entry, so the maxima come from skip headers.
  const auto max_tf = [](const BlockPostingList& l) {
    uint32_t m = 0;
    for (const BlockPostingList::SkipEntry& s : l.skips()) m = std::max(m, s.max_tf);
    return m;
  };
  const size_t num_nodes = unique_tokens_.size();
  IndexStats& s = stats_;
  s.cnodes = num_nodes;
  s.total_positions = block_any_list().total_positions();
  s.pos_per_cnode = max_tf(block_any_list());
  uint64_t total_entries = 0;
  uint64_t nonempty_lists = 0;
  df_.assign(vocabulary_size(), 0);
  for (TokenId t = 0; t < vocabulary_size(); ++t) {
    const BlockPostingList& l = lists_.list(t);
    if (l.empty()) continue;
    df_[t] = static_cast<uint32_t>(l.num_entries());
    ++nonempty_lists;
    total_entries += l.num_entries();
    s.entries_per_token = std::max(s.entries_per_token, df_[t]);
    s.pos_per_entry = std::max(s.pos_per_entry, max_tf(l));
  }
  s.avg_pos_per_cnode =
      num_nodes == 0 ? 0 : static_cast<double>(s.total_positions) / num_nodes;
  s.avg_entries_per_token =
      nonempty_lists == 0 ? 0 : static_cast<double>(total_entries) / nonempty_lists;
  s.avg_pos_per_entry =
      total_entries == 0 ? 0 : static_cast<double>(s.total_positions) / total_entries;

  // TF-IDF norms from the finished list headers, through the same pass
  // snapshots run with global statistics.
  SegmentScoringStats own = scoring_stats();
  FTS_RETURN_IF_ERROR(ComputeNodeNorms(*this, nullptr, &node_norms_, &own));
  min_uniq_norm_ = own.min_uniq_norm;
  return Status::OK();
}

void InvertedIndex::BuildPairIndex(std::span<const TokenizedDocument> docs,
                                   const PairIndexOptions& opts) {
  if (opts.frequent_terms == 0) return;
  pair_index_ = std::make_unique<PairIndex>(PairIndex::Build(docs, *this, opts));
  if (pair_index_->num_keys() == 0) pair_index_.reset();
}

Status ComputeNodeNorms(const InvertedIndex& index, const TombstoneSet* dead,
                        std::vector<double>* norms,
                        SegmentScoringStats* stats) {
  // With several workers the vocabulary is cut into kChunksPerWorker token
  // chunks per worker, balanced by the entries to decode (a token with df
  // 0 contributes nothing and is never decoded), which the workers take in
  // turn from the last (rare tokens, the costliest per entry) down; any
  // worker may sum any chunk, the sums being order-free. One worker takes
  // the vocabulary as one chunk.
  const size_t vocab = index.vocabulary_size();
  const size_t num_nodes = index.num_nodes();
  const size_t workers = WorkersFor(index.stats().total_positions);
  const size_t chunks = workers == 1 ? 1 : kChunksPerWorker * workers;
  uint32_t block_entries = 0;  // a decoded block holds at most this many
  std::vector<size_t> entries_before(chunks > 1 ? vocab + 1 : 0, 0);
  for (TokenId t = 0; t < vocab; ++t) {
    const BlockPostingList& list = *index.block_list(t);
    block_entries = std::max(block_entries, list.block_size());
    if (chunks > 1) {
      entries_before[t + 1] =
          entries_before[t] + (stats->global_df[t] != 0 ? list.num_entries() : 0);
    }
  }
  const std::vector<size_t> bounds =
      chunks > 1 ? SplitByWeight(entries_before, chunks) : std::vector<size_t>{0, vocab};

  // Each worker sums into accumulators of its own, which the calling
  // thread sizes, as it does their decode scratch, so a worker thread
  // allocates nothing (and leaves nothing in a malloc arena of its own).
  std::vector<NormSum> sums(workers * num_nodes, 0);
  // A line of its own per worker: a decode writes its vector's end pointer
  // for every entry.
  struct alignas(64) Scratch {
    std::vector<BlockPostingList::EntryRef> entries;
  };
  std::vector<Scratch> scratch(workers);
  for (Scratch& s : scratch) s.entries.reserve(block_entries);
  std::vector<Status> failed(workers);
  std::atomic<size_t> next_chunk{0};
  RunWorkers(workers, [&](size_t w) {
    NormSum* const sum = sums.data() + w * num_nodes;
    std::vector<BlockPostingList::EntryRef>& entries = scratch[w].entries;
    for (size_t task; (task = next_chunk.fetch_add(1)) < chunks;) {
      const size_t c = chunks - 1 - task;
      for (TokenId t = bounds[c]; t < bounds[c + 1]; ++t) {
        const uint32_t df = stats->global_df[t];
        if (df == 0) continue;
        const uint64_t weight = NormWeight(stats->Idf(df));
        const BlockPostingList& list = *index.block_list(t);
        for (size_t b = 0; b < list.num_blocks(); ++b) {
          Status decoded = list.DecodeBlockEntries(b, &entries);
          if (!decoded.ok()) {
            failed[w] = std::move(decoded);
            return;
          }
          for (const BlockPostingList::EntryRef& e : entries) {
            const NodeId n = e.header.node;
            if (dead != nullptr && dead->Contains(n)) continue;
            sum[n] += NormTerm(e.header.pos_count, weight);
          }
        }
      }
    }
  });
  for (const Status& status : failed) FTS_RETURN_IF_ERROR(status);

  // Dead and empty nodes, whose sums stayed 0, get the neutral norm.
  norms->resize(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    NormSum total = 0;
    for (size_t w = 0; w < workers; ++w) total += sums[w * num_nodes + n];
    (*norms)[n] = NodeNorm(total, index.unique_tokens(n));
  }
  stats->norms = *norms;
  stats->min_uniq_norm = MinUniqNorm(index, *norms, dead);
  return Status::OK();
}

double MinUniqNorm(const InvertedIndex& index, std::span<const double> norms,
                   const TombstoneSet* dead) {
  double min_un = std::numeric_limits<double>::infinity();
  for (NodeId n = 0; n < norms.size(); ++n) {
    if (dead != nullptr && dead->Contains(n)) continue;
    const double un = std::max<uint32_t>(1, index.unique_tokens(n)) * norms[n];
    min_un = std::min(min_un, un);
  }
  return min_un;
}

TokenId InvertedIndex::LookupToken(std::string_view token) const {
  auto it = token_ids_.find(std::string(token));
  return it == token_ids_.end() ? kInvalidToken : it->second;
}

}  // namespace fts

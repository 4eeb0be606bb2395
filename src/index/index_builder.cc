#include "index/index_builder.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>

#include "index/block_posting_list.h"
#include "index/build_workers.h"

namespace fts {
namespace {

/// How many records ahead of the one being written the write pass
/// prefetches its position: each gather is a miss into a random document.
constexpr size_t kPrefetchAhead = 16;

/// One token occurrence as the counting sort moves it.
struct Occurrence {
  NodeId node;
  uint32_t at;  // index into the document's positions
};

/// The payload bytes to stage for the tokens whose buckets `prefix`
/// bounds (prefix[i] .. prefix[i + 1] for each): 4 per occurrence for its
/// position deltas plus 4 per entry for its header, a token having at most
/// one entry per node. That covers the 3.4 to 6.9 bytes per occurrence
/// that chunks of the generated corpora take, from frequent to rare
/// tokens; a chunk that outgrows it only regrows its buffer.
size_t StagedPayloadBytes(std::span<const size_t> prefix, size_t num_nodes) {
  size_t bytes = 0;
  for (size_t i = 0; i + 1 < prefix.size(); ++i) {
    const size_t occurrences = prefix[i + 1] - prefix[i];
    bytes += 4 * occurrences + 4 * std::min(occurrences, num_nodes);
  }
  return bytes;
}

}  // namespace

InvertedIndex IndexBuilder::Build(const Corpus& corpus,
                                  const IndexBuildOptions& options) {
  InvertedIndex index;
  const size_t num_nodes = corpus.num_nodes();
  const size_t vocab = corpus.vocabulary_size();

  index.token_texts_.reserve(vocab);
  for (TokenId t = 0; t < vocab; ++t) {
    index.token_texts_.push_back(corpus.token_text(t));
    index.token_ids_.emplace(corpus.token_text(t), t);
  }

  // The worker count follows from the work: one per kOccurrencesPerWorker
  // occurrences, at least one, at most one per core.
  std::vector<size_t> node_start(num_nodes + 1, 0);
  for (NodeId n = 0; n < num_nodes; ++n) {
    node_start[n + 1] = node_start[n] + corpus.doc(n).tokens.size();
  }
  const size_t workers = WorkersFor(node_start.back());

  // Count and scatter: one stable counting sort of the occurrences by
  // token, over contiguous node ranges with one histogram per worker.
  const std::vector<size_t> node_bounds = SplitByWeight(node_start, workers);
  std::vector<std::vector<size_t>> counts(workers);
  RunWorkers(workers, [&](size_t w) {
    std::vector<size_t>& count = counts[w];
    count.assign(vocab, 0);
    for (NodeId n = node_bounds[w]; n < node_bounds[w + 1]; ++n) {
      for (const TokenId t : corpus.doc(n).tokens) ++count[t];
    }
  });
  // Bucket t is [start[t], start[t + 1]) of the records; the token lists
  // are written in contiguous token chunks balanced by occurrences,
  // kChunksPerWorker per worker when there are several (one worker has
  // nothing to balance and writes one chunk), and each chunk's buckets get
  // an array of their own, freed once its lists are written. Slots are
  // handed out token-major, then worker-major, so every bucket holds its
  // occurrences in (node, index-in-document) order, the order its list is
  // written in.
  std::vector<size_t> start(vocab + 1, 0);
  for (size_t t = 0; t < vocab; ++t) {
    for (const std::vector<size_t>& count : counts) start[t + 1] += count[t];
    start[t + 1] += start[t];
  }
  const bool balanced = workers > 1;
  const size_t chunks = balanced ? kChunksPerWorker * workers : 1;
  const std::vector<size_t> token_bounds = SplitByWeight(start, chunks);
  std::vector<std::unique_ptr<Occurrence[]>> records(chunks);
  std::vector<std::vector<Occurrence*>> slots(workers, std::vector<Occurrence*>(vocab));
  for (size_t c = 0; c < chunks; ++c) {
    const size_t first = token_bounds[c], last = token_bounds[c + 1];
    // Left uninitialised: the scatter writes every record.
    records[c] = std::make_unique_for_overwrite<Occurrence[]>(start[last] - start[first]);
    Occurrence* at = records[c].get();
    for (size_t t = first; t < last; ++t) {
      for (size_t w = 0; w < workers; ++w) {
        slots[w][t] = at;
        at += counts[w][t];
      }
    }
  }
  std::vector<std::vector<size_t>>().swap(counts);
  RunWorkers(workers, [&](size_t w) {
    std::vector<Occurrence*>& slot = slots[w];
    for (NodeId n = node_bounds[w]; n < node_bounds[w + 1]; ++n) {
      const std::vector<TokenId>& tokens = corpus.doc(n).tokens;
      for (uint32_t i = 0; i < tokens.size(); ++i) *slot[tokens[i]]++ = {n, i};
    }
    std::vector<Occurrence*>().swap(slot);
  });

  // Write: each task through its worker's reused writer into its own
  // staged store; the workers take tasks in turn. Balanced, they take
  // IL_ANY, the largest single task, first, then the token chunks from the
  // last one down: token ids follow first appearance, so the last chunks
  // hold the rare tokens, which cost the most per occurrence (each
  // occurrence is an entry of its own), and taking them early leaves the
  // cheap chunks to fill the tail. Each chunk's staged payload is then
  // sized once up front from its occurrences (StagedPayloadBytes), so it
  // is allocated once — mapped pages past 1 MiB — and never regrown inside
  // a worker's own malloc arena. One worker writes its chunk, then IL_ANY,
  // growing its buffer on the calling thread's heap: a small build reuses
  // warm pages there, where a buffer sized up front faults fresh ones in
  // (measured ~6% of a 200-node build, and IL_ANY first ~5% of a
  // 2,000-node one). Each bucket is written grouped by node, its
  // positions gathered with a prefetch kPrefetchAhead records ahead, and
  // each worker counts its entries per node: a node's distinct tokens. A
  // token with no occurrence gets its empty list.
  std::vector<PostingStore> staged(chunks + 1);  // token chunks, IL_ANY
  std::vector<std::vector<uint32_t>> unique(workers);
  std::atomic<size_t> next_task{0};
  RunWorkers(workers, [&](size_t w) {
    BlockListWriter writer;
    std::vector<PositionInfo> group;
    std::vector<uint32_t>& entries = unique[w];
    entries.assign(num_nodes, 0);
    for (size_t task; (task = next_task.fetch_add(1)) <= chunks;) {
      if (task == (balanced ? 0 : chunks)) {
        for (NodeId n = 0; n < num_nodes; ++n) {
          const std::vector<PositionInfo>& positions = corpus.doc(n).positions;
          if (!positions.empty()) writer.Append(n, positions);
        }
        staged[chunks].Add(std::move(writer));
        continue;
      }
      const size_t c = balanced ? chunks - task : task;
      const size_t first = token_bounds[c], last = token_bounds[c + 1];
      const size_t base = start[first], end = start[last];
      const Occurrence* const occ = records[c].get();
      const size_t payload_bytes =
          balanced ? StagedPayloadBytes(std::span(start).subspan(first, last - first + 1),
                                        num_nodes)
                   : 0;
      staged[c].Reserve(last - first, 0, payload_bytes);
      for (size_t t = first; t < last; ++t) {
        for (size_t o = start[t]; o < start[t + 1];) {
          const NodeId n = occ[o - base].node;
          const std::vector<PositionInfo>& positions = corpus.doc(n).positions;
          group.clear();
          for (; o < start[t + 1] && occ[o - base].node == n; ++o) {
            if (o + kPrefetchAhead < end) {
              const Occurrence& ahead = occ[o + kPrefetchAhead - base];
              __builtin_prefetch(corpus.doc(ahead.node).positions.data() + ahead.at);
            }
            group.push_back(positions[occ[o - base].at]);
          }
          writer.Append(n, group);
          ++entries[n];
        }
        staged[c].Add(std::move(writer));
      }
      records[c].reset();
    }
  });
  index.unique_tokens_ = std::move(unique[0]);
  for (size_t w = 1; w < workers; ++w) {
    for (NodeId n = 0; n < num_nodes; ++n) index.unique_tokens_[n] += unique[w][n];
  }
  // The staged lists follow one another in token order, IL_ANY last; the
  // index's store adopts their payload buffers.
  index.lists_.Append(staged);
  index.lists_.Seal();
  // Corpus shape statistics and TF-IDF norms from the finished lists —
  // the pass a segment merge runs too. Freshly built lists always decode.
  [[maybe_unused]] const Status finished = index.FinishLists();
  assert(finished.ok());

  // Auxiliary pair lists last: their frequent-term ranking reads the
  // finished token-list dfs, and nothing above depends on them.
  index.BuildPairIndex(corpus.docs(), options.pairs);
  return index;
}

}  // namespace fts

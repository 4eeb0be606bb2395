// Builds an InvertedIndex from a Corpus, computing the per-token inverted
// lists, IL_ANY, corpus shape statistics, and the TF-IDF normalization
// inputs (document frequencies enter via list sizes; unique-token counts and
// L2 norms are precomputed here, matching the paper's observation that "all
// of the scoring information in R_t can be precomputed", Section 3.1).
//
// Three passes write the lists: count each token's occurrences, scatter each
// occurrence as an 8-byte (node, index-in-document) record into its token's
// bucket (one stable counting sort, so buckets are in node order), then
// write each bucket, grouped by node, and IL_ANY through a reused
// BlockListWriter into staged stores (PostingStore::Add) — the Reserve / Add
// / Seal protocol PairIndex::Build and MergeSegments use too. The write pass
// prefetches the position of the record 16 ahead, since each gather lands in
// a random document.
//
// The passes run on clamp(occurrences / 2^19, 1, hardware_concurrency())
// workers (WorkersFor, index/build_workers.h), set by the corpus size and
// the core count alone; the calling thread is one of them, and one worker
// starts no thread (ingest seals and 3,000-node shards, which run beside
// other work, stay there). Count and
// scatter take contiguous node ranges, one histogram each; slots are handed
// out token-major, then worker-major, so every bucket stays in node order.
// The write pass cuts the vocabulary into two contiguous token chunks per
// worker, balanced by occurrences; the workers take IL_ANY, the largest
// single task, first, then the chunks from the last (rare tokens, the
// costliest per occurrence) down, each into its own staged store whose
// payload is sized once from the chunk's occurrences. One worker writes
// one chunk, then IL_ANY, growing its buffers on the calling thread's heap. PostingStore::Append
// then moves them into the index's store in token order, adopting their
// payload buffers (past 1 MiB, pages of their own, common/page_allocator.h,
// so nothing a worker filled stays in its thread's malloc arena once the
// index is freed). Peak memory is the records (8 B per occurrence, one
// array per chunk, freed as its chunk finishes) plus the lists' payload;
// nothing is copied twice. Each worker also counts its entries per node;
// their sum is each node's distinct-token count. A fourth pass reads the
// finished lists for the statistics and norms (InvertedIndex::FinishLists,
// which a segment merge ends with too, through ComputeNodeNorms, the pass
// snapshots run with global statistics); its norms are exact, order-free
// sums, so it runs on the same workers and still stores the same bits as
// a serial pass. No uncompressed form of a list is ever built. The saved
// bytes are pinned by tests/index_builder_golden_test.cc.

#ifndef FTS_INDEX_INDEX_BUILDER_H_
#define FTS_INDEX_INDEX_BUILDER_H_

#include "index/inverted_index.h"
#include "index/pair_index.h"
#include "text/corpus.h"

namespace fts {

/// Build-time configuration. Defaults reproduce the classic index exactly
/// (no auxiliary structures).
struct IndexBuildOptions {
  /// Frequent-term pair-list construction (index/pair_index.h);
  /// pairs.frequent_terms == 0 (the default) builds no pair index.
  PairIndexOptions pairs;
};

/// One-shot index construction.
class IndexBuilder {
 public:
  /// Builds the complete index for `corpus`, plus whatever `options` asks
  /// for (pair lists never perturb the classic sections: token lists,
  /// IL_ANY, norms, and IndexStats are bit-identical with or without
  /// them). Token ids in the index match the corpus dictionary ids.
  static InvertedIndex Build(const Corpus& corpus,
                             const IndexBuildOptions& options = {});
};

}  // namespace fts

#endif  // FTS_INDEX_INDEX_BUILDER_H_

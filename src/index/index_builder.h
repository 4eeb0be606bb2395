// Builds an InvertedIndex from a Corpus, computing the per-token inverted
// lists, IL_ANY, corpus shape statistics, and the TF-IDF normalization
// inputs (document frequencies enter via list sizes; unique-token counts and
// L2 norms are precomputed here, matching the paper's observation that "all
// of the scoring information in R_t can be precomputed", Section 3.1).
//
// Three passes write the lists: count each token's occurrences, scatter
// each as a (node, index-in-document) record into its token's bucket (one
// stable counting sort, so buckets are in node order), then write each
// bucket, grouped by node, and IL_ANY through one reused BlockListWriter
// into the index's stores (PostingStore::Add), counting each node's
// unique tokens on the way — the Reserve / Add / Seal protocol
// PairIndex::Build and MergeSegments use too. A fourth pass reads the
// finished list headers for the statistics and norms
// (InvertedIndex::FinishLists, which a segment merge ends with too,
// through ComputeNodeNorms, the pass snapshots run with global
// statistics). No uncompressed form of a list is ever built. The saved
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

// Builds an InvertedIndex from a Corpus, computing the per-token inverted
// lists, IL_ANY, corpus shape statistics, and the TF-IDF normalization
// inputs (document frequencies enter via list sizes; unique-token counts and
// L2 norms are precomputed here, matching the paper's observation that "all
// of the scoring information in R_t can be precomputed", Section 3.1).
//
// Two passes. The group-and-append pass walks the documents in node order,
// groups each document's occurrences by token with one sort of packed
// (token, index-in-document) keys, and appends every group straight to its
// token's list, encoded into the block-compressed resident form; only the
// per-node unique-token count outlives a document. The statistics and norm
// pass then reads the finished list headers (InvertedIndex::FinishLists,
// which a segment merge ends with too) through ComputeNodeNorms
// (index/inverted_index.h), the same pass snapshots run with global
// statistics. The raw uncompressed twin of a list exists only as the
// differential-test oracle (testing/raw_posting_oracle.h). The saved bytes
// are pinned by tests/index_builder_golden_test.cc.

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
  /// Builds the complete index for `corpus`. Token ids in the index match
  /// the corpus dictionary ids.
  static InvertedIndex Build(const Corpus& corpus);

  /// As above, additionally building whatever IndexBuildOptions asks for
  /// (pair lists never perturb the classic sections: token lists, IL_ANY,
  /// norms, and IndexStats are bit-identical with or without them).
  static InvertedIndex Build(const Corpus& corpus,
                             const IndexBuildOptions& options);
};

}  // namespace fts

#endif  // FTS_INDEX_INDEX_BUILDER_H_

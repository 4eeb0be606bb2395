// Raw-representation oracle for differential testing.
//
// The only posting representation resident in an InvertedIndex is the
// block-compressed BlockPostingList. The harness in
// tests/read_path_differential_test.cc proves that representation
// change is invisible: it builds this oracle — the same logical lists in
// raw random-access PostingList form — from the identical corpus and
// attaches it to the engines (set_raw_oracle_for_test), which then run the
// very same merge/pipeline/algebra code over raw ListCursors. Results and
// scores must be bit-identical to the block-resident evaluation.
//
// Production code never constructs one of these.

#ifndef FTS_TESTING_RAW_POSTING_ORACLE_H_
#define FTS_TESTING_RAW_POSTING_ORACLE_H_

#include <vector>

#include "index/inverted_index.h"
#include "text/corpus.h"

namespace fts {

/// The raw random-access posting table of a corpus: the uncompressed twin
/// of an InvertedIndex's block lists, indexed by the same token ids.
struct RawPostingOracle {
  std::vector<PostingList> lists;  // indexed by TokenId
  PostingList any_list;            // IL_ANY

  const PostingList* list(TokenId t) const {
    return t < lists.size() ? &lists[t] : nullptr;
  }
};

/// Builds the oracle table for `corpus`. Token ids match the corpus (and
/// therefore the built index's) dictionary, and each list carries exactly
/// the entries IndexBuilder::Build encodes into blocks.
RawPostingOracle BuildRawPostingOracle(const Corpus& corpus);

}  // namespace fts

#endif  // FTS_TESTING_RAW_POSTING_ORACLE_H_

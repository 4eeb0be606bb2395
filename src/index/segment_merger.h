// Background segment compaction (the merge half of docs/ingestion.md).
//
// MergeSegments merges posting lists, not documents. Live nodes are
// renumbered densely in segment order; the merged dictionary orders each
// token by its first live occurrence — (merged node id, first offset) —
// which is exactly the interning order a single-shot build of the
// surviving documents would use. Each merged list then walks its source
// lists in segment order, decoding entry headers only, and appends every
// live entry under its new id with its position bytes copied verbatim
// (BlockPostingList::AppendEncoded): position bytes are per-entry deltas
// and do not depend on node ids. IL_ANY merges the same way; unique-token
// counts are copied, and the statistics and norms come from the pass
// IndexBuilder ends with. Token spellings are kept as they are. The merged
// segment is therefore *exactly* the index a single-shot build of the
// surviving documents would produce (same bytes, same statistics, same
// norms bit for bit), which the read-path differential harness pins. Node
// ids are generation-relative (Lucene semantics: the snapshot's segment
// bases, not the ids themselves, are stable).

#ifndef FTS_INDEX_SEGMENT_MERGER_H_
#define FTS_INDEX_SEGMENT_MERGER_H_

#include <vector>

#include "common/status.h"
#include "index/index_builder.h"
#include "index/index_snapshot.h"
#include "index/inverted_index.h"

namespace fts {

/// Merges `segments` (with their tombstones) into one segment holding only
/// the live documents, renumbered densely in segment order. A lazily
/// validated input is fully validated before any of its bytes are copied,
/// so a malformed one fails the merge with Corruption. With
/// options.pairs.frequent_terms > 0 the pair lists are rebuilt over the
/// merged index from its token-id streams (per-segment pair lists cannot
/// be concatenated — frequent-term ranks shift as dfs merge); inputs whose
/// token lists do not name every IL_ANY position exactly once, which
/// block validation cannot see, fail with Corruption there.
StatusOr<InvertedIndex> MergeSegments(const std::vector<SegmentView>& segments,
                                      const IndexBuildOptions& options = {});

}  // namespace fts

#endif  // FTS_INDEX_SEGMENT_MERGER_H_

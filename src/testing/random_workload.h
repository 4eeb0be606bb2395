// Seeded random corpora and queries for differential and concurrency
// tests.
//
// The read-path differential harness and the cursor-level stream tests
// exercise the same workload shape: small dense corpora over a tiny
// vocabulary (so predicates have plenty of witnesses) and random queries
// drawn from each language class. Test-support code, linked into the
// library like raw_posting_oracle but never used by production paths.

#ifndef FTS_TESTING_RANDOM_WORKLOAD_H_
#define FTS_TESTING_RANDOM_WORKLOAD_H_

#include "common/rng.h"
#include "lang/ast.h"
#include "text/corpus.h"

namespace fts {

/// A random token from the fixed 6-word test vocabulary ("a".."f"; small
/// so lists are dense and collisions between query atoms are common).
std::string RandomWorkloadToken(Rng* rng);

/// Random corpus with sentence/paragraph structure so structural
/// predicates and multi-block lists are exercised.
Corpus RandomWorkloadCorpus(Rng* rng, int docs, int max_sentences);

/// Random BOOL query (tokens, ANY, NOT/AND/OR) of the given depth.
LangExprPtr RandomBoolQuery(Rng* rng, int depth);

/// Random pipelined query: SOME-quantified token bindings plus predicates,
/// optionally negative ones (the NPRED shape), an AND NOT conjunct, or an
/// OR atom.
LangExprPtr RandomPipelinedQuery(Rng* rng, bool allow_negative);

}  // namespace fts

#endif  // FTS_TESTING_RANDOM_WORKLOAD_H_

// Seeded random corpora and queries for differential and concurrency
// tests.
//
// The read-path differential harness and the cursor-level stream tests
// exercise the same workload shape: small dense corpora over a tiny
// vocabulary (so predicates have plenty of witnesses) and random queries
// drawn from each language class. Header-only: every tests/*.cc file
// builds its own test binary.

#ifndef FTS_TESTS_RANDOM_WORKLOAD_H_
#define FTS_TESTS_RANDOM_WORKLOAD_H_

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lang/ast.h"
#include "text/corpus.h"

namespace fts {

inline constexpr const char* kWorkloadVocab[] = {"a", "b", "c", "d", "e", "f"};

/// A random token from the fixed 6-word test vocabulary ("a".."f"; small
/// so lists are dense and collisions between query atoms are common).
inline std::string RandomWorkloadToken(Rng* rng) {
  return std::string(kWorkloadVocab[rng->Uniform(std::size(kWorkloadVocab))]);
}

/// Random corpus with sentence/paragraph structure so structural
/// predicates and multi-block lists are exercised.
inline Corpus RandomWorkloadCorpus(Rng* rng, int docs, int max_sentences) {
  Corpus corpus;
  for (int d = 0; d < docs; ++d) {
    std::string text;
    const int sentences = static_cast<int>(rng->Uniform(max_sentences + 1));
    for (int s = 0; s < sentences; ++s) {
      const int words = 1 + static_cast<int>(rng->Uniform(6));
      for (int w = 0; w < words; ++w) text += RandomWorkloadToken(rng) + " ";
      text += rng->Bernoulli(0.25) ? ".\n\n" : ". ";
    }
    corpus.AddDocument(text);
  }
  return corpus;
}

/// Random BOOL query (tokens, ANY, NOT/AND/OR) of the given depth.
inline LangExprPtr RandomBoolQuery(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    if (rng->Bernoulli(0.15)) return LangExpr::Any();
    return LangExpr::Token(RandomWorkloadToken(rng));
  }
  switch (rng->Uniform(3)) {
    case 0:
      return LangExpr::Not(RandomBoolQuery(rng, depth - 1));
    case 1:
      return LangExpr::And(RandomBoolQuery(rng, depth - 1),
                           RandomBoolQuery(rng, depth - 1));
    default:
      return LangExpr::Or(RandomBoolQuery(rng, depth - 1),
                          RandomBoolQuery(rng, depth - 1));
  }
}

/// Random pipelined query: SOME-quantified token bindings plus predicates,
/// optionally negative ones (the NPRED shape), an AND NOT conjunct, or an
/// OR atom.
inline LangExprPtr RandomPipelinedQuery(Rng* rng, bool allow_negative) {
  const int ntok = 2 + static_cast<int>(rng->Uniform(2));
  std::vector<std::string> vars;
  LangExprPtr body;
  for (int i = 0; i < ntok; ++i) {
    vars.push_back("v" + std::to_string(i));
    LangExprPtr atom = LangExpr::VarHasToken(vars[i], RandomWorkloadToken(rng));
    body = body ? LangExpr::And(std::move(body), std::move(atom)) : atom;
  }
  const int npred = 1 + static_cast<int>(rng->Uniform(2));
  for (int p = 0; p < npred; ++p) {
    const std::string& v1 = vars[rng->Uniform(vars.size())];
    const std::string& v2 = vars[rng->Uniform(vars.size())];
    LangExprPtr pred;
    if (allow_negative && rng->Bernoulli(0.5)) {
      switch (rng->Uniform(3)) {
        case 0:
          pred = LangExpr::Pred("not_distance", {v1, v2},
                                {static_cast<int64_t>(rng->Uniform(4))});
          break;
        case 1:
          pred = LangExpr::Pred("not_ordered", {v1, v2}, {});
          break;
        default:
          pred = LangExpr::Pred("not_samesentence", {v1, v2}, {});
          break;
      }
    } else {
      switch (rng->Uniform(4)) {
        case 0:
          pred = LangExpr::Pred("distance", {v1, v2},
                                {static_cast<int64_t>(1 + rng->Uniform(4))});
          break;
        case 1:
          pred = LangExpr::Pred("ordered", {v1, v2}, {});
          break;
        case 2:
          pred = LangExpr::Pred("samesentence", {v1, v2}, {});
          break;
        default:
          pred = LangExpr::Pred("odistance", {v1, v2},
                                {static_cast<int64_t>(1 + rng->Uniform(4))});
          break;
      }
    }
    body = LangExpr::And(std::move(body), std::move(pred));
  }
  if (rng->Bernoulli(0.3)) {
    body = LangExpr::And(std::move(body),
                         LangExpr::Not(LangExpr::Token(RandomWorkloadToken(rng))));
  }
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    body = LangExpr::Some(*it, std::move(body));
  }
  if (rng->Bernoulli(0.25)) {
    body = LangExpr::Or(std::move(body),
                        LangExpr::Token(RandomWorkloadToken(rng)));
  }
  return body;
}

}  // namespace fts

#endif  // FTS_TESTS_RANDOM_WORKLOAD_H_

// Language classification: maps any parsed query to the cheapest class in
// the paper's complexity hierarchy (Figure 3) whose evaluation algorithm can
// run it:
//
//   BOOL-NONEG ⊂ BOOL ⊂ PPRED ⊂ NPRED ⊂ COMP
//
// The classifier operates on normalized surface trees (EVERY desugared,
// double negation removed). The Searcher (eval/searcher.h) uses the result
// to dispatch to the matching engine.

#ifndef FTS_LANG_CLASSIFY_H_
#define FTS_LANG_CLASSIFY_H_

#include <set>
#include <string>

#include "lang/ast.h"
#include "predicates/predicate.h"

namespace fts {

/// Evaluation classes ordered by increasing query complexity.
enum class LanguageClass {
  kBoolNoNeg,  ///< merge of query-token lists only
  kBool,       ///< merges including IL_ANY complements
  kPpred,      ///< single-scan pipelined cursors, positive predicates
  kNpred,      ///< per-ordering pipelined scans, +negative predicates
  kComp,       ///< materialized algebra evaluation
};

const char* LanguageClassToString(LanguageClass cls);

/// Free (unbound) variable names of a surface expression.
std::set<std::string> FreeSurfaceVars(const LangExprPtr& e);

/// Classifies `query` (any COMP-language tree). The query is normalized
/// internally; predicate classes resolve against `registry`.
LanguageClass ClassifyQuery(const LangExprPtr& query,
                            const PredicateRegistry& registry =
                                PredicateRegistry::Default());

}  // namespace fts

#endif  // FTS_LANG_CLASSIFY_H_

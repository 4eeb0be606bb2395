// Recursive-descent parsers for the paper's query languages.
//
// Grammar (full COMP; the other languages are syntactic restrictions):
//
//   query   := or
//   or      := and (OR and)*
//   and     := unary (AND unary)*
//   unary   := NOT unary | SOME ident unary | EVERY ident unary | primary
//   primary := '(' query ')' | string | ANY
//            | ident HAS (string | ANY)
//            | ident '(' arg (',' arg)* ')'          (predicate / dist)
//            | ident                                 (bare token literal)
//   arg     := ident | int | string                  (string only in dist)
//
// Precedence: NOT/SOME/EVERY bind tighter than AND, AND tighter than OR,
// matching conventional Boolean query syntax. Bare identifiers that are not
// followed by HAS or '(' are accepted as token literals for convenience.

#ifndef FTS_LANG_PARSER_H_
#define FTS_LANG_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "lang/ast.h"
#include "predicates/predicate.h"

namespace fts {

/// The concrete query language a string claims to be written in.
enum class SurfaceLanguage {
  kBoolNoNeg,  ///< Section 5.3's BOOL-NONEG
  kBool,       ///< Section 4.1's BOOL
  kDist,       ///< Section 4.2's DIST
  kComp,       ///< Section 4.3's COMP
};

const char* SurfaceLanguageToString(SurfaceLanguage lang);

/// Deepest query ParseQuery accepts: both the AST height (every operator
/// counts, so a left-deep `a OR b OR ...` chain is as deep as it is long)
/// and the nesting of '(' / NOT / SOME / EVERY are bounded by it. Deeper
/// queries fail with InvalidArgument before the parser, the AST's
/// recursive destructor or any later recursive pass can exhaust a
/// worker's stack. A fixed limit, not an option.
inline constexpr size_t kMaxQueryDepth = 256;

/// Parses `query` and verifies it stays within `lang`'s constructs.
/// Predicate names are validated against `registry` at parse time.
StatusOr<LangExprPtr> ParseQuery(std::string_view query, SurfaceLanguage lang,
                                 const PredicateRegistry& registry =
                                     PredicateRegistry::Default());

/// Returns OK iff `expr` uses only constructs available in `lang`
/// (e.g. a COMP tree with SOME is not in BOOL; NOT outside "AND NOT" is
/// not in BOOL-NONEG).
Status CheckInLanguage(const LangExprPtr& expr, SurfaceLanguage lang);

}  // namespace fts

#endif  // FTS_LANG_PARSER_H_

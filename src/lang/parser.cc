#include "lang/parser.h"

#include <algorithm>
#include <string>
#include <vector>

#include "lang/lexer.h"

namespace fts {

const char* SurfaceLanguageToString(SurfaceLanguage lang) {
  switch (lang) {
    case SurfaceLanguage::kBoolNoNeg: return "BOOL-NONEG";
    case SurfaceLanguage::kBool: return "BOOL";
    case SurfaceLanguage::kDist: return "DIST";
    case SurfaceLanguage::kComp: return "COMP";
  }
  return "?";
}

namespace {

class Parser {
 public:
  Parser(std::vector<LexToken> tokens, const PredicateRegistry& registry)
      : tokens_(std::move(tokens)), registry_(registry) {}

  StatusOr<LangExprPtr> Parse() {
    FTS_ASSIGN_OR_RETURN(Sub e, ParseOr(0));
    if (cur().kind != LexKind::kEnd) {
      return Err("unexpected trailing input");
    }
    return std::move(e.expr);
  }

 private:
  /// A parsed subexpression and its AST height (a leaf is 1).
  struct Sub {
    LangExprPtr expr;
    size_t height = 1;
  };

  /// Bounds the AST height at kMaxQueryDepth as the tree is built, so a
  /// rejected tree is never deeper than the limit either — its recursive
  /// destruction, like ClassifyQuery and the translators, recurses once per
  /// level.
  StatusOr<Sub> Node(LangExprPtr e, size_t height) const {
    if (height > kMaxQueryDepth) return TooDeep();
    return Sub{std::move(e), height};
  }

  Status TooDeep() const {
    return Err("query nested deeper than " + std::to_string(kMaxQueryDepth) +
               " levels");
  }

  const LexToken& cur() const { return tokens_[pos_]; }
  const LexToken& peek() const {
    return tokens_[pos_ + 1 < tokens_.size() ? pos_ + 1 : tokens_.size() - 1];
  }
  void Advance() { if (pos_ + 1 < tokens_.size()) ++pos_; }

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(msg + " at offset " + std::to_string(cur().offset) +
                                   " (near " + std::string(LexKindToString(cur().kind)) +
                                   (cur().text.empty() ? "" : " '" + cur().text + "'") +
                                   ")");
  }

  Status Expect(LexKind kind) {
    if (cur().kind != kind) {
      return Err(std::string("expected ") + LexKindToString(kind));
    }
    Advance();
    return Status::OK();
  }

  // `nest` counts the enclosing '(' / NOT / SOME / EVERY levels: the
  // parser's own recursion, checked before it descends further so hostile
  // nesting fails before it can exhaust the stack.
  StatusOr<Sub> ParseOr(size_t nest) {
    FTS_ASSIGN_OR_RETURN(Sub l, ParseAnd(nest));
    while (cur().kind == LexKind::kOr) {
      Advance();
      FTS_ASSIGN_OR_RETURN(Sub r, ParseAnd(nest));
      FTS_ASSIGN_OR_RETURN(l, Node(LangExpr::Or(std::move(l.expr), std::move(r.expr)),
                                   std::max(l.height, r.height) + 1));
    }
    return l;
  }

  StatusOr<Sub> ParseAnd(size_t nest) {
    FTS_ASSIGN_OR_RETURN(Sub l, ParseUnary(nest));
    while (cur().kind == LexKind::kAnd) {
      Advance();
      FTS_ASSIGN_OR_RETURN(Sub r, ParseUnary(nest));
      FTS_ASSIGN_OR_RETURN(l, Node(LangExpr::And(std::move(l.expr), std::move(r.expr)),
                                   std::max(l.height, r.height) + 1));
    }
    return l;
  }

  StatusOr<Sub> ParseUnary(size_t nest) {
    if (nest > kMaxQueryDepth) return TooDeep();
    switch (cur().kind) {
      case LexKind::kNot: {
        Advance();
        FTS_ASSIGN_OR_RETURN(Sub e, ParseUnary(nest + 1));
        return Node(LangExpr::Not(std::move(e.expr)), e.height + 1);
      }
      case LexKind::kSome:
      case LexKind::kEvery: {
        const bool some = cur().kind == LexKind::kSome;
        Advance();
        if (cur().kind != LexKind::kIdent) return Err("expected variable name");
        std::string var = cur().text;
        Advance();
        FTS_ASSIGN_OR_RETURN(Sub body, ParseUnary(nest + 1));
        return Node(some ? LangExpr::Some(std::move(var), std::move(body.expr))
                         : LangExpr::Every(std::move(var), std::move(body.expr)),
                    body.height + 1);
      }
      default:
        return ParsePrimary(nest);
    }
  }

  StatusOr<Sub> ParsePrimary(size_t nest) {
    switch (cur().kind) {
      case LexKind::kLParen: {
        Advance();
        FTS_ASSIGN_OR_RETURN(Sub e, ParseOr(nest + 1));
        FTS_RETURN_IF_ERROR(Expect(LexKind::kRParen));
        return e;
      }
      case LexKind::kString: {
        std::string tok = cur().text;
        Advance();
        return Sub{LangExpr::Token(std::move(tok))};
      }
      case LexKind::kAny:
        Advance();
        return Sub{LangExpr::Any()};
      case LexKind::kIdent: {
        if (peek().kind == LexKind::kHas) return ParseHas();
        if (peek().kind == LexKind::kLParen) return ParseCall();
        // Bare word: token literal.
        std::string tok = cur().text;
        Advance();
        return Sub{LangExpr::Token(std::move(tok))};
      }
      default:
        return Err("expected a token, ANY, variable, predicate, or '('");
    }
  }

  StatusOr<Sub> ParseHas() {
    std::string var = cur().text;
    Advance();  // ident
    Advance();  // HAS
    if (cur().kind == LexKind::kString || cur().kind == LexKind::kIdent) {
      std::string tok = cur().text;
      Advance();
      return Sub{LangExpr::VarHasToken(std::move(var), std::move(tok))};
    }
    if (cur().kind == LexKind::kAny) {
      Advance();
      return Sub{LangExpr::VarHasAny(std::move(var))};
    }
    return Err("expected string literal or ANY after HAS");
  }

  // Predicate application, or DIST's dist(Token, Token, Integer).
  StatusOr<Sub> ParseCall() {
    std::string name = cur().text;
    Advance();  // ident
    Advance();  // '('
    if (name == "dist") return ParseDistCall();

    const PositionPredicate* pred = registry_.Find(name);
    if (pred == nullptr) {
      return Status::InvalidArgument("unknown predicate '" + name + "'");
    }
    std::vector<std::string> vars;
    std::vector<int64_t> consts;
    while (cur().kind != LexKind::kRParen) {
      if (cur().kind == LexKind::kIdent) {
        if (!consts.empty()) return Err("position arguments must precede constants");
        vars.push_back(cur().text);
        Advance();
      } else if (cur().kind == LexKind::kInt) {
        consts.push_back(cur().value);
        Advance();
      } else {
        return Err("expected variable or integer argument");
      }
      if (cur().kind == LexKind::kComma) {
        Advance();
      } else if (cur().kind != LexKind::kRParen) {
        return Err("expected ',' or ')'");
      }
    }
    Advance();  // ')'
    FTS_RETURN_IF_ERROR(pred->ValidateSignature(vars.size(), consts.size()));
    return Sub{LangExpr::Pred(std::move(name), std::move(vars), std::move(consts))};
  }

  StatusOr<Sub> ParseDistCall() {
    auto parse_token = [this]() -> StatusOr<std::string> {
      if (cur().kind == LexKind::kString || cur().kind == LexKind::kIdent) {
        std::string t = cur().text;
        Advance();
        return t;
      }
      if (cur().kind == LexKind::kAny) {
        Advance();
        return std::string();  // empty = ANY
      }
      return StatusOr<std::string>(Err("expected token or ANY in dist()"));
    };
    FTS_ASSIGN_OR_RETURN(std::string t1, parse_token());
    FTS_RETURN_IF_ERROR(Expect(LexKind::kComma));
    FTS_ASSIGN_OR_RETURN(std::string t2, parse_token());
    FTS_RETURN_IF_ERROR(Expect(LexKind::kComma));
    if (cur().kind != LexKind::kInt) return Err("expected integer distance in dist()");
    const int64_t d = cur().value;
    Advance();
    FTS_RETURN_IF_ERROR(Expect(LexKind::kRParen));
    if (d < 0) return Status::InvalidArgument("dist() distance must be non-negative");
    return Sub{LangExpr::Dist(std::move(t1), std::move(t2), d)};
  }

  std::vector<LexToken> tokens_;
  size_t pos_ = 0;
  const PredicateRegistry& registry_;
};

}  // namespace

StatusOr<LangExprPtr> ParseQuery(std::string_view query, SurfaceLanguage lang,
                                 const PredicateRegistry& registry) {
  FTS_ASSIGN_OR_RETURN(std::vector<LexToken> tokens, LexQuery(query));
  Parser parser(std::move(tokens), registry);
  FTS_ASSIGN_OR_RETURN(LangExprPtr expr, parser.Parse());
  FTS_RETURN_IF_ERROR(CheckInLanguage(expr, lang));
  return expr;
}

namespace {

Status CheckRec(const LangExprPtr& e, SurfaceLanguage lang, bool not_under_and) {
  switch (e->kind()) {
    case LangExpr::Kind::kToken:
      return Status::OK();
    case LangExpr::Kind::kAny:
      if (lang == SurfaceLanguage::kBoolNoNeg) {
        return Status::InvalidArgument("ANY is not available in BOOL-NONEG");
      }
      return Status::OK();
    case LangExpr::Kind::kVarHasToken:
    case LangExpr::Kind::kVarHasAny:
    case LangExpr::Kind::kSome:
    case LangExpr::Kind::kEvery:
    case LangExpr::Kind::kPred:
      if (lang != SurfaceLanguage::kComp) {
        return Status::InvalidArgument(
            std::string("position variables and predicates require COMP, not ") +
            SurfaceLanguageToString(lang));
      }
      if (e->kind() == LangExpr::Kind::kSome || e->kind() == LangExpr::Kind::kEvery) {
        return CheckRec(e->child(), lang, false);
      }
      return Status::OK();
    case LangExpr::Kind::kDist:
      if (lang != SurfaceLanguage::kDist && lang != SurfaceLanguage::kComp) {
        return Status::InvalidArgument("dist() requires the DIST or COMP language");
      }
      return Status::OK();
    case LangExpr::Kind::kNot:
      if (lang == SurfaceLanguage::kBoolNoNeg && !not_under_and) {
        return Status::InvalidArgument(
            "BOOL-NONEG only allows negation as 'Query AND NOT Query'");
      }
      return CheckRec(e->child(), lang, false);
    case LangExpr::Kind::kAnd:
      if (lang == SurfaceLanguage::kBoolNoNeg &&
          e->left()->kind() == LangExpr::Kind::kNot &&
          e->right()->kind() == LangExpr::Kind::kNot) {
        return Status::InvalidArgument(
            "BOOL-NONEG requires a positive conjunct beside NOT");
      }
      FTS_RETURN_IF_ERROR(CheckRec(e->left(), lang, true));
      return CheckRec(e->right(), lang, true);
    case LangExpr::Kind::kOr:
      FTS_RETURN_IF_ERROR(CheckRec(e->left(), lang, false));
      return CheckRec(e->right(), lang, false);
  }
  return Status::Internal("unreachable surface kind");
}

}  // namespace

Status CheckInLanguage(const LangExprPtr& expr, SurfaceLanguage lang) {
  if (!expr) return Status::InvalidArgument("null query");
  return CheckRec(expr, lang, false);
}

}  // namespace fts

#include "lang/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace fts {
namespace {

LangExprPtr MustParse(const std::string& q,
                      SurfaceLanguage lang = SurfaceLanguage::kComp) {
  auto e = ParseQuery(q, lang);
  EXPECT_TRUE(e.ok()) << q << " -> " << e.status().ToString();
  return e.ok() ? *e : nullptr;
}

TEST(ParserTest, SingleToken) {
  auto e = MustParse("'usability'", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kToken);
  EXPECT_EQ(e->token(), "usability");
}

TEST(ParserTest, BareWordIsToken) {
  auto e = MustParse("usability", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kToken);
}

TEST(ParserTest, PrecedenceNotBindsTighterThanAndThanOr) {
  auto e = MustParse("NOT 'a' AND 'b' OR 'c'", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  // ((NOT a) AND b) OR c
  ASSERT_EQ(e->kind(), LangExpr::Kind::kOr);
  ASSERT_EQ(e->left()->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->left()->left()->kind(), LangExpr::Kind::kNot);
  EXPECT_EQ(e->right()->token(), "c");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto e = MustParse("'a' AND ('b' OR 'c')", SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->right()->kind(), LangExpr::Kind::kOr);
}

TEST(ParserTest, PaperExampleBoolQuery) {
  // Section 5.3: ('software' AND 'users' AND NOT 'testing') OR 'usability'
  auto e = MustParse("('software' AND 'users' AND NOT 'testing') OR 'usability'",
                     SurfaceLanguage::kBool);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kOr);
}

TEST(ParserTest, CompQuantifiersAndPredicates) {
  // Section 5.5's running example.
  auto e = MustParse(
      "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' AND "
      "distance(p1, p2, 5))");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kSome);
  EXPECT_EQ(e->var(), "p1");
  ASSERT_EQ(e->child()->kind(), LangExpr::Kind::kSome);
}

TEST(ParserTest, Theorem3Witness) {
  auto e = MustParse("SOME p1 (NOT p1 HAS 't1')");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kSome);
}

TEST(ParserTest, Theorem5Witness) {
  auto e = MustParse(
      "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND NOT distance(p1,p2,0))");
  ASSERT_NE(e, nullptr);
}

TEST(ParserTest, EveryQuantifier) {
  auto e = MustParse("EVERY p (p HAS 'a')");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind(), LangExpr::Kind::kEvery);
}

TEST(ParserTest, VarHasAny) {
  auto e = MustParse("SOME p (p HAS ANY)");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->child()->kind(), LangExpr::Kind::kVarHasAny);
}

TEST(ParserTest, DistSugarInDistLanguage) {
  auto e = MustParse("dist('efficient', 'completion', 10) AND 'book'",
                     SurfaceLanguage::kDist);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->kind(), LangExpr::Kind::kAnd);
  EXPECT_EQ(e->left()->kind(), LangExpr::Kind::kDist);
  EXPECT_EQ(e->left()->dist_tok1(), "efficient");
  EXPECT_EQ(e->left()->dist_limit(), 10);
}

TEST(ParserTest, DistWithAny) {
  auto e = MustParse("dist(ANY, 'x', 3)", SurfaceLanguage::kDist);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->dist_tok1().empty());
}

TEST(ParserTest, DistRejectsNegativeDistance) {
  EXPECT_FALSE(ParseQuery("dist('a','b',-1)", SurfaceLanguage::kDist).ok());
}

TEST(ParserTest, LanguageRestrictionsEnforced) {
  // Variables require COMP.
  EXPECT_FALSE(ParseQuery("SOME p (p HAS 'a')", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("distance(p,q,3)", SurfaceLanguage::kDist).ok());
  // dist() requires DIST or COMP.
  EXPECT_FALSE(ParseQuery("dist('a','b',3)", SurfaceLanguage::kBool).ok());
  EXPECT_TRUE(ParseQuery("dist('a','b',3)", SurfaceLanguage::kComp).ok());
  // ANY not in BOOL-NONEG.
  EXPECT_FALSE(ParseQuery("ANY", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_TRUE(ParseQuery("ANY", SurfaceLanguage::kBool).ok());
}

TEST(ParserTest, BoolNoNegNegationRules) {
  EXPECT_TRUE(ParseQuery("'a' AND NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("'a' OR NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
  EXPECT_FALSE(ParseQuery("NOT 'a' AND NOT 'b'", SurfaceLanguage::kBoolNoNeg).ok());
}

TEST(ParserTest, SyntaxErrorsCarryOffsets) {
  auto e = ParseQuery("'a' AND", SurfaceLanguage::kBool);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("offset"), std::string::npos);

  EXPECT_FALSE(ParseQuery("('a' AND 'b'", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("'a' 'b'", SurfaceLanguage::kBool).ok());
  EXPECT_FALSE(ParseQuery("", SurfaceLanguage::kBool).ok());
}

TEST(ParserTest, UnknownPredicateRejected) {
  auto e = ParseQuery("SOME p frobnicate(p, 3)", SurfaceLanguage::kComp);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("frobnicate"), std::string::npos);
}

TEST(ParserTest, PredicateArityCheckedAtParse) {
  EXPECT_FALSE(ParseQuery("SOME p distance(p, 3)", SurfaceLanguage::kComp).ok());
  EXPECT_FALSE(ParseQuery("SOME p SOME q ordered(p, q, 7)",
                          SurfaceLanguage::kComp).ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* queries[] = {
      "'a'",
      "('a' AND NOT ('b'))",
      "SOME p1 (p1 HAS 'x')",
      "SOME p1 SOME p2 ((p1 HAS 'a' AND p2 HAS 'b') AND distance(p1, p2, 5))",
      "EVERY p (NOT (p HAS 'x'))",
  };
  for (const char* q : queries) {
    auto e1 = ParseQuery(q, SurfaceLanguage::kComp);
    ASSERT_TRUE(e1.ok()) << q;
    auto e2 = ParseQuery((*e1)->ToString(), SurfaceLanguage::kComp);
    ASSERT_TRUE(e2.ok()) << (*e1)->ToString();
    EXPECT_EQ((*e1)->ToString(), (*e2)->ToString());
  }
}

// Hostile nesting: each shape at 10^5 levels must fail cleanly with
// InvalidArgument instead of exhausting the stack (in the parser, or in the
// recursive destruction of a half-built tree), and each must be accepted
// right up to kMaxQueryDepth.
std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

std::string NestedParens(size_t depth) {
  return Repeat("(", depth) + "'a'" + Repeat(")", depth);
}

std::string NotChain(size_t nots) { return Repeat("NOT ", nots) + "'a'"; }

std::string OrChain(size_t terms) { return "'a'" + Repeat(" OR 'a'", terms - 1); }

void ExpectTooDeep(const std::string& q) {
  auto e = ParseQuery(q, SurfaceLanguage::kComp);
  ASSERT_FALSE(e.ok()) << q.substr(0, 40);
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

constexpr size_t kHostileDepth = 100000;

TEST(ParserTest, DeepParenthesesRejected) {
  ExpectTooDeep(NestedParens(kHostileDepth));
  ExpectTooDeep(NestedParens(kMaxQueryDepth + 1));
  EXPECT_NE(MustParse(NestedParens(kMaxQueryDepth)), nullptr);
}

TEST(ParserTest, DeepNotChainRejected) {
  ExpectTooDeep(NotChain(kHostileDepth));
  // n NOTs over a leaf is n + 1 levels.
  ExpectTooDeep(NotChain(kMaxQueryDepth));
  EXPECT_NE(MustParse(NotChain(kMaxQueryDepth - 1)), nullptr);
  ExpectTooDeep(Repeat("SOME p ", kHostileDepth) + "p HAS 'a'");
}

TEST(ParserTest, LeftDeepChainCountsTowardDepth) {
  // Left-deep chains recurse no deeper in the parser, but the tree they
  // build is as deep as the chain is long.
  ExpectTooDeep(OrChain(kHostileDepth));
  ExpectTooDeep("'a'" + Repeat(" AND 'a'", kHostileDepth - 1));
  ExpectTooDeep(OrChain(kMaxQueryDepth + 1));
  EXPECT_NE(MustParse(OrChain(kMaxQueryDepth)), nullptr);
  // A chain inside nesting adds to the nesting's height.
  ExpectTooDeep("NOT (" + OrChain(kMaxQueryDepth) + ")");
}

}  // namespace
}  // namespace fts

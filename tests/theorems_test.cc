// Executable versions of the paper's expressiveness results (Section 4):
// the incompleteness witnesses for BOOL (Theorem 3) and DIST (Theorem 5),
// BOOL's completeness over a finite alphabet (Theorem 4), and COMP's
// completeness via round trips (Theorems 1 and 6).

#include <gtest/gtest.h>

#include <functional>

#include "calculus/naive_eval.h"
#include "compile/ftc_to_fta.h"
#include "compile/fta_to_ftc.h"
#include "eval/searcher.h"
#include "index/index_builder.h"
#include "lang/classify.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "text/corpus.h"

namespace fts {
namespace {

std::vector<NodeId> EvalComp(const Corpus& corpus, const std::string& query) {
  InvertedIndex index = IndexBuilder::Build(corpus);
  ExecContext ctx;
  auto r = Searcher(IndexSnapshot::ForIndex(&index)).Search(query, ctx);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return r.ok() ? r->result.nodes : std::vector<NodeId>{};
}

// Evaluates the BOOL semantics of a surface tree over a corpus, treating
// the query purely set-theoretically (via the naive calculus oracle).
bool BoolQuerySatisfies(const Corpus& corpus, const LangExprPtr& query, NodeId node) {
  auto calc = TranslateToCalculus(query);
  EXPECT_TRUE(calc.ok());
  NaiveCalculusEvaluator oracle(&corpus);
  auto nodes = oracle.Evaluate(*calc);
  EXPECT_TRUE(nodes.ok());
  return std::find(nodes->begin(), nodes->end(), node) != nodes->end();
}

// ---------------------------------------------------------------------------
// Theorem 3: no BOOL query over a fixed token vocabulary distinguishes
// CN1 = {t1} from CN2 = {t1, t2} when t2 lies outside the query vocabulary,
// yet COMP's  SOME p (NOT p HAS 't1')  does.
// ---------------------------------------------------------------------------

TEST(Theorem3, BoolCannotExpressSomeOtherToken) {
  Corpus corpus;
  corpus.AddDocument("t1");      // CN1
  corpus.AddDocument("t1 t2");   // CN2

  // The COMP witness separates the two nodes.
  EXPECT_EQ(EvalComp(corpus, "SOME p1 (NOT p1 HAS 't1')"),
            (std::vector<NodeId>{1}));

  // Every BOOL query built from the vocabulary {t1} (plus ANY) returns the
  // same truth value on CN1 and CN2 — enumerate all trees up to depth 3.
  std::vector<LangExprPtr> depth0 = {LangExpr::Token("t1"), LangExpr::Any()};
  auto grow = [](const std::vector<LangExprPtr>& exprs) {
    std::vector<LangExprPtr> out = exprs;
    for (const auto& a : exprs) {
      out.push_back(LangExpr::Not(a));
      for (const auto& b : exprs) {
        out.push_back(LangExpr::And(a, b));
        out.push_back(LangExpr::Or(a, b));
      }
    }
    return out;
  };
  std::vector<LangExprPtr> queries = grow(grow(depth0));
  ASSERT_GT(queries.size(), 50u);
  for (const auto& q : queries) {
    EXPECT_EQ(BoolQuerySatisfies(corpus, q, 0), BoolQuerySatisfies(corpus, q, 1))
        << "BOOL query distinguished the witness nodes: " << q->ToString();
  }
}

// ---------------------------------------------------------------------------
// Theorem 5: DIST cannot express "t1 and t2 NOT adjacent at least once".
// CN1 = t1 t2 t1, CN2 = t1 t2 t1 t2: the COMP witness separates them, and
// no DIST query over {t1, t2} does.
// ---------------------------------------------------------------------------

TEST(Theorem5, DistCannotExpressNegatedDistance) {
  Corpus corpus;
  corpus.AddDocument("t1 t2 t1");      // CN1: every (t1,t2) pair adjacent
  corpus.AddDocument("t1 t2 t1 t2");   // CN2: (t1@0, t2@3) not adjacent

  EXPECT_EQ(EvalComp(corpus,
                     "SOME p1 SOME p2 (p1 HAS 't1' AND p2 HAS 't2' AND "
                     "NOT distance(p1, p2, 0))"),
            (std::vector<NodeId>{1}));

  // Enumerate DIST queries: atoms are tokens, ANY, and dist(x, y, d) for
  // d in {0, 1, 2, 5}; closed under NOT/AND/OR to depth 2.
  std::vector<LangExprPtr> atoms = {LangExpr::Token("t1"), LangExpr::Token("t2"),
                                    LangExpr::Any()};
  for (int64_t d : {0, 1, 2, 5}) {
    atoms.push_back(LangExpr::Dist("t1", "t2", d));
    atoms.push_back(LangExpr::Dist("t2", "t1", d));
    atoms.push_back(LangExpr::Dist("t1", "t1", d));
    atoms.push_back(LangExpr::Dist("", "t2", d));
  }
  auto grow = [](const std::vector<LangExprPtr>& exprs) {
    std::vector<LangExprPtr> out = exprs;
    for (const auto& a : exprs) {
      out.push_back(LangExpr::Not(a));
      for (const auto& b : exprs) {
        out.push_back(LangExpr::And(a, b));
        out.push_back(LangExpr::Or(a, b));
      }
    }
    return out;
  };
  std::vector<LangExprPtr> queries = grow(atoms);
  ASSERT_GT(queries.size(), 300u);
  for (const auto& q : queries) {
    EXPECT_EQ(BoolQuerySatisfies(corpus, q, 0), BoolQuerySatisfies(corpus, q, 1))
        << "DIST query distinguished the witness nodes: " << q->ToString();
  }
}

// ---------------------------------------------------------------------------
// Theorem 4: over a finite alphabet, "some position is not t1" is BOOL-
// expressible by enumerating the complement alphabet.
// ---------------------------------------------------------------------------

TEST(Theorem4, FiniteAlphabetRewriteMatchesCompWitness) {
  // Alphabet T = {t1, a, b}.
  Corpus corpus;
  corpus.AddDocument("t1");        // 0: only t1
  corpus.AddDocument("t1 a");      // 1
  corpus.AddDocument("b");         // 2
  corpus.AddDocument("t1 t1 t1");  // 3

  auto comp = EvalComp(corpus, "SOME p (NOT p HAS 't1')");
  // The Theorem 4 rewrite: 'a' OR 'b' (all tokens other than t1).
  auto rewritten = EvalComp(corpus, "'a' OR 'b'");
  EXPECT_EQ(comp, rewritten);
  EXPECT_EQ(comp, (std::vector<NodeId>{1, 2}));
}

// ---------------------------------------------------------------------------
// Theorem 6 / Theorem 1: COMP expresses every calculus query — validated as
// a round trip FTC -> FTA -> FTC preserving semantics on sample queries.
// ---------------------------------------------------------------------------

TEST(Theorem6, CalculusAlgebraRoundTripPreservesSemantics) {
  Corpus corpus;
  corpus.AddDocument("alpha beta gamma alpha");
  corpus.AddDocument("beta gamma");
  corpus.AddDocument("alpha");
  corpus.AddDocument("gamma beta alpha gamma beta");
  NaiveCalculusEvaluator oracle(&corpus);
  InvertedIndex index = IndexBuilder::Build(corpus);

  const char* queries[] = {
      "'alpha' AND NOT 'beta'",
      "SOME p SOME q (p HAS 'alpha' AND q HAS 'beta' AND ordered(p, q))",
      "EVERY p (p HAS 'alpha' OR p HAS 'beta' OR p HAS 'gamma')",
      "SOME p (NOT p HAS 'alpha')",
      "dist('beta', 'gamma', 0)",
  };
  for (const char* q : queries) {
    auto parsed = ParseQuery(q, SurfaceLanguage::kComp);
    ASSERT_TRUE(parsed.ok()) << q;
    auto calc = TranslateToCalculus(*parsed);
    ASSERT_TRUE(calc.ok()) << q;
    auto direct = oracle.Evaluate(*calc);
    ASSERT_TRUE(direct.ok()) << q;

    // FTC -> FTA -> evaluate.
    auto plan = CompileQuery(*calc);
    ASSERT_TRUE(plan.ok()) << q;
    auto rel = EvaluateFta(*plan, index, nullptr, nullptr);
    ASSERT_TRUE(rel.ok()) << q;
    EXPECT_EQ(rel->Nodes(), *direct) << q;

    // FTA -> FTC -> naive evaluate (the Lemma 1 direction).
    auto back = TranslateFtaQuery(*plan);
    ASSERT_TRUE(back.ok()) << q;
    auto via_back = oracle.Evaluate(*back);
    ASSERT_TRUE(via_back.ok()) << q;
    EXPECT_EQ(*via_back, *direct) << q;
  }
}

}  // namespace
}  // namespace fts

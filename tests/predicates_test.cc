#include "predicates/predicate.h"

#include <gtest/gtest.h>

#include "algebra/fta.h"
#include "common/rng.h"
#include "eval/pos_cursor.h"
#include "index/index_builder.h"
#include "predicates/builtin.h"
#include "text/corpus.h"

namespace fts {
namespace {

const PositionPredicate* Get(const std::string& name) {
  const PositionPredicate* p = PredicateRegistry::Default().Find(name);
  EXPECT_NE(p, nullptr) << name;
  return p;
}

PositionInfo P(uint32_t off, uint32_t sent = 0, uint32_t para = 0) {
  return PositionInfo{off, sent, para};
}

TEST(PredicatesTest, DistanceSemantics) {
  const auto* d = Get("distance");
  // "at most dist intervening tokens": offsets 3 and 5 have 1 intervening.
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(3), P(5)}, std::vector<int64_t>{1}));
  EXPECT_FALSE(d->Eval(std::vector<PositionInfo>{P(3), P(5)}, std::vector<int64_t>{0}));
  // Symmetric.
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(5), P(3)}, std::vector<int64_t>{1}));
  // Adjacent tokens have zero intervening.
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(3), P(4)}, std::vector<int64_t>{0}));
}

TEST(PredicatesTest, OrderedDistanceSemantics) {
  const auto* d = Get("odistance");
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(3), P(4)}, std::vector<int64_t>{0}));
  EXPECT_FALSE(d->Eval(std::vector<PositionInfo>{P(4), P(3)}, std::vector<int64_t>{0}));
  EXPECT_FALSE(d->Eval(std::vector<PositionInfo>{P(3), P(3)}, std::vector<int64_t>{5}));
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(3), P(14)}, std::vector<int64_t>{10}));
  EXPECT_FALSE(d->Eval(std::vector<PositionInfo>{P(3), P(15)}, std::vector<int64_t>{10}));
}

TEST(PredicatesTest, OrderedSemantics) {
  const auto* o = Get("ordered");
  EXPECT_TRUE(o->Eval(std::vector<PositionInfo>{P(1), P(2)}, {}));
  EXPECT_FALSE(o->Eval(std::vector<PositionInfo>{P(2), P(1)}, {}));
  EXPECT_FALSE(o->Eval(std::vector<PositionInfo>{P(2), P(2)}, {}));
}

TEST(PredicatesTest, StructuralPredicates) {
  const auto* sp = Get("samepara");
  const auto* ss = Get("samesentence");
  EXPECT_TRUE(sp->Eval(std::vector<PositionInfo>{P(1, 0, 3), P(9, 2, 3)}, {}));
  EXPECT_FALSE(sp->Eval(std::vector<PositionInfo>{P(1, 0, 3), P(9, 2, 4)}, {}));
  EXPECT_TRUE(ss->Eval(std::vector<PositionInfo>{P(1, 2, 0), P(3, 2, 0)}, {}));
  EXPECT_FALSE(ss->Eval(std::vector<PositionInfo>{P(1, 2, 0), P(3, 3, 0)}, {}));
}

TEST(PredicatesTest, WindowIsVariadic) {
  const auto* w = Get("window");
  EXPECT_TRUE(w->Eval(std::vector<PositionInfo>{P(3), P(7), P(5)},
                      std::vector<int64_t>{4}));
  EXPECT_FALSE(w->Eval(std::vector<PositionInfo>{P(3), P(8), P(5)},
                       std::vector<int64_t>{4}));
  EXPECT_TRUE(w->ValidateSignature(5, 1).ok());
  EXPECT_FALSE(w->ValidateSignature(1, 1).ok());
}

TEST(PredicatesTest, NegativePredicatesAreComplements) {
  Rng rng(3);
  struct Pair {
    const char* pos;
    const char* neg;
    std::vector<int64_t> consts;
  };
  for (const Pair& pair : {Pair{"distance", "not_distance", {4}},
                           Pair{"ordered", "not_ordered", {}},
                           Pair{"samepara", "not_samepara", {}},
                           Pair{"samesentence", "not_samesentence", {}}}) {
    const auto* pos = Get(pair.pos);
    const auto* neg = Get(pair.neg);
    for (int i = 0; i < 200; ++i) {
      const uint32_t o1 = static_cast<uint32_t>(rng.Uniform(30));
      const uint32_t o2 = static_cast<uint32_t>(rng.Uniform(30));
      std::vector<PositionInfo> ps{P(o1, o1 / 5, o1 / 10), P(o2, o2 / 5, o2 / 10)};
      EXPECT_NE(pos->Eval(ps, pair.consts), neg->Eval(ps, pair.consts))
          << pair.pos << " offsets " << o1 << "," << o2;
    }
  }
}

TEST(PredicatesTest, DiffposSemantics) {
  const auto* d = Get("diffpos");
  EXPECT_TRUE(d->Eval(std::vector<PositionInfo>{P(1), P(2)}, {}));
  EXPECT_FALSE(d->Eval(std::vector<PositionInfo>{P(2), P(2)}, {}));
}

TEST(PredicatesTest, SignatureValidation) {
  const auto* d = Get("distance");
  EXPECT_TRUE(d->ValidateSignature(2, 1).ok());
  EXPECT_FALSE(d->ValidateSignature(3, 1).ok());
  EXPECT_FALSE(d->ValidateSignature(2, 0).ok());
}

TEST(PredicatesTest, DistanceScoreFactorAttenuatesWithGap) {
  const auto* d = Get("distance");
  const double close = d->ScoreFactor(std::vector<PositionInfo>{P(3), P(4)},
                                      std::vector<int64_t>{10});
  const double far = d->ScoreFactor(std::vector<PositionInfo>{P(3), P(12)},
                                    std::vector<int64_t>{10});
  EXPECT_GT(close, far);
  EXPECT_GE(far, 0.0);
  EXPECT_LE(close, 1.0);
}

TEST(PredicateRegistryTest, RejectsDuplicates) {
  PredicateRegistry registry;
  RegisterBuiltinPredicates(&registry);
  class Dup : public PositionPredicate {
    std::string_view name() const override { return "distance"; }
    int arity() const override { return 2; }
    int num_constants() const override { return 1; }
    PredicateClass cls() const override { return PredicateClass::kGeneral; }
    bool Eval(std::span<const PositionInfo>, std::span<const int64_t>) const override {
      return true;
    }
  };
  EXPECT_FALSE(registry.Register(std::make_shared<Dup>()).ok());
}

TEST(PredicateRegistryTest, UserPredicatesExtendTheLanguage) {
  PredicateRegistry registry;
  RegisterBuiltinPredicates(&registry);
  // The model is "extensible with respect to the set of predicates"
  // (Section 2.1): register a predicate that is true when both positions
  // fall in the first sentence.
  class FirstSentence : public PositionPredicate {
    std::string_view name() const override { return "firstsentence"; }
    int arity() const override { return 2; }
    int num_constants() const override { return 0; }
    PredicateClass cls() const override { return PredicateClass::kGeneral; }
    bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
      return ps[0].sentence == 0 && ps[1].sentence == 0;
    }
  };
  ASSERT_TRUE(registry.Register(std::make_shared<FirstSentence>()).ok());
  const auto* p = registry.Find("firstsentence");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Eval(std::vector<PositionInfo>{P(0, 0, 0), P(1, 0, 0)}, {}));
}

TEST(PredicatesTest, OnlyStructuralBuiltinsReadStructure) {
  // A cursor fills sentence and paragraph only for plans whose predicates
  // read them; among the builtins that is the four structural ones.
  for (const std::string& name : PredicateRegistry::Default().Names()) {
    const bool structural = name == "samepara" || name == "samesentence" ||
                            name == "not_samepara" || name == "not_samesentence";
    EXPECT_EQ(Get(name)->reads_structure(), structural) << name;
  }
}

/// A positive predicate that holds for every tuple and records each
/// position it is shown. It says nothing about reads_structure, so it gets
/// the default: filled positions.
class Recorder : public PositionPredicate {
 public:
  std::string_view name() const override { return "recorder"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    seen.insert(seen.end(), ps.begin(), ps.end());
    return true;
  }
  void AdvanceBounds(std::span<const PositionInfo>, std::span<const int64_t>,
                     std::span<uint32_t>) const override {}  // never fails

  mutable std::vector<PositionInfo> seen;
};

/// The same, declaring that it reads offsets alone.
class OffsetRecorder : public Recorder {
 public:
  bool reads_structure() const override { return false; }
};

TEST(PredicateRegistryTest, UnannouncedPredicatesSeeFilledPositions) {
  // Lists store offsets; the run table restores sentence and paragraph for
  // a plan holding a predicate that may read them. A registered predicate
  // that does not override reads_structure() must see them filled, through
  // the materialized (COMP) scans and the pipelined cursors alike; one
  // that declares offsets alone sees them 0.
  Corpus corpus;
  corpus.AddDocument("a b. c a.\n\nb c a. b");
  const InvertedIndex index = IndexBuilder::Build(corpus);
  const TokenizedDocument& doc = corpus.doc(0);
  for (const bool announced : {false, true}) {
    SCOPED_TRACE(announced ? "reads offsets alone" : "says nothing");
    const std::unique_ptr<Recorder> pred =
        announced ? std::make_unique<OffsetRecorder>() : std::make_unique<Recorder>();
    const auto plan = FtaExpr::Select(
        FtaExpr::Join(FtaExpr::Token("a"), FtaExpr::Token("b")), {pred.get(), {0, 1}, {}});
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(EvaluateFta(*plan, index, nullptr, nullptr).ok());
    std::vector<NodeId> nodes;
    std::vector<double> scores;
    ASSERT_TRUE(RunPipeline(*plan, {.index = &index}, &nodes, &scores).ok());
    EXPECT_EQ(nodes, std::vector<NodeId>{0});
    ASSERT_FALSE(pred->seen.empty());
    bool structured = false;
    for (const PositionInfo& p : pred->seen) {
      ASSERT_LT(p.offset, doc.positions.size());
      const PositionInfo& truth = doc.positions[p.offset];
      EXPECT_EQ(p.sentence, announced ? 0 : truth.sentence) << p.offset;
      EXPECT_EQ(p.paragraph, announced ? 0 : truth.paragraph) << p.offset;
      structured |= truth.sentence > 0 && truth.paragraph > 0;
    }
    EXPECT_TRUE(structured);  // some position lies past the first sentence and paragraph
  }
}

// ---------------------------------------------------------------------------
// Definition 1 property: for every failing tuple of a positive predicate,
// (a) some advance bound strictly exceeds its coordinate, and (b) every
// tuple inside the bounded region also fails. Checked by exhaustive
// sampling over a small position space.
// ---------------------------------------------------------------------------

struct PositiveCase {
  const char* name;
  std::vector<int64_t> consts;
};

class PositivePredicateProperty : public ::testing::TestWithParam<PositiveCase> {};

TEST_P(PositivePredicateProperty, Definition1Holds) {
  const auto* pred = Get(GetParam().name);
  ASSERT_EQ(pred->cls(), PredicateClass::kPositive);
  const auto& consts = GetParam().consts;
  const uint32_t kMax = 18;
  auto mk = [](uint32_t off) { return P(off, off / 4, off / 8); };
  for (uint32_t a = 0; a < kMax; ++a) {
    for (uint32_t b = 0; b < kMax; ++b) {
      std::vector<PositionInfo> ps{mk(a), mk(b)};
      if (pred->Eval(ps, consts)) continue;
      std::vector<uint32_t> bounds(2);
      pred->AdvanceBounds(ps, consts, bounds);
      // (a) progress is guaranteed.
      EXPECT_TRUE(bounds[0] > a || bounds[1] > b)
          << GetParam().name << "(" << a << "," << b << ")";
      // (b) the skipped region contains no solutions.
      for (uint32_t a2 = a; a2 < bounds[0] && a2 < kMax; ++a2) {
        for (uint32_t b2 = b; b2 < kMax; ++b2) {
          std::vector<PositionInfo> q{mk(a2), mk(b2)};
          EXPECT_FALSE(pred->Eval(q, consts))
              << GetParam().name << " region violation: failing (" << a << "," << b
              << ") claims (" << a2 << "," << b2 << ") fails too";
        }
      }
      for (uint32_t b2 = b; b2 < bounds[1] && b2 < kMax; ++b2) {
        for (uint32_t a2 = a; a2 < kMax; ++a2) {
          std::vector<PositionInfo> q{mk(a2), mk(b2)};
          EXPECT_FALSE(pred->Eval(q, consts)) << GetParam().name;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, PositivePredicateProperty,
    ::testing::Values(PositiveCase{"distance", {3}}, PositiveCase{"odistance", {3}},
                      PositiveCase{"ordered", {}}, PositiveCase{"samepara", {}},
                      PositiveCase{"samesentence", {}}, PositiveCase{"le", {}},
                      PositiveCase{"samepos", {}}),
    [](const ::testing::TestParamInfo<PositiveCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Negative-predicate property (Section 5.6.1): when the largest position is
// advanced to NegativeAdvanceTarget, the predicate becomes satisfiable
// there, and no smaller advance of the largest position can satisfy it.
// ---------------------------------------------------------------------------

struct NegativeCase {
  const char* name;
  std::vector<int64_t> consts;
  bool offset_only;  // structural predicates advance one step at a time
};

class NegativePredicateProperty : public ::testing::TestWithParam<NegativeCase> {};

TEST_P(NegativePredicateProperty, AdvanceTargetIsMinimalForOffsetPredicates) {
  const auto* pred = Get(GetParam().name);
  ASSERT_EQ(pred->cls(), PredicateClass::kNegative);
  const auto& consts = GetParam().consts;
  const uint32_t kMax = 24;
  for (uint32_t a = 0; a < kMax; ++a) {
    for (uint32_t b = a; b < kMax; ++b) {  // ordering: a <= b, largest = index 1
      std::vector<PositionInfo> ps{P(a), P(b)};
      if (pred->Eval(ps, consts)) continue;
      const uint32_t target = pred->NegativeAdvanceTarget(ps, consts, 1);
      if (target == kInvalidOffset) {
        // Unsatisfiable by moving the largest: verify exhaustively.
        for (uint32_t b2 = b; b2 < kMax; ++b2) {
          std::vector<PositionInfo> q{P(a), P(b2)};
          EXPECT_FALSE(pred->Eval(q, consts)) << GetParam().name;
        }
        continue;
      }
      EXPECT_GT(target, b) << GetParam().name;
      if (!GetParam().offset_only) continue;
      // Offset-based predicates: target is exactly the first satisfying
      // offset with the smaller position fixed.
      std::vector<PositionInfo> at{P(a), P(target)};
      EXPECT_TRUE(pred->Eval(at, consts)) << GetParam().name << " at target";
      for (uint32_t b2 = b; b2 < target; ++b2) {
        std::vector<PositionInfo> q{P(a), P(b2)};
        EXPECT_FALSE(pred->Eval(q, consts))
            << GetParam().name << " target not minimal";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, NegativePredicateProperty,
    ::testing::Values(NegativeCase{"not_distance", {4}, true},
                      NegativeCase{"diffpos", {}, true},
                      NegativeCase{"not_samepara", {}, false},
                      NegativeCase{"not_samesentence", {}, false}),
    [](const ::testing::TestParamInfo<NegativeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fts

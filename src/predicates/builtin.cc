#include "predicates/builtin.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace fts {

namespace {

// Convenience: offset of the i-th argument.
uint32_t Off(std::span<const PositionInfo> ps, size_t i) { return ps[i].offset; }

// ---------------------------------------------------------------------------
// Positive predicates.
// ---------------------------------------------------------------------------

/// distance(p1, p2, d): at most d intervening tokens, either order.
class DistancePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "distance"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 1; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps,
            std::span<const int64_t> consts) const override {
    const int64_t diff = std::llabs(static_cast<int64_t>(Off(ps, 0)) -
                                    static_cast<int64_t>(Off(ps, 1)));
    return diff <= consts[0] + 1;
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t> consts,
                     std::span<uint32_t> bounds) const override {
    // False means the gap exceeds d+1; only moving the smaller position up
    // to (larger - (d+1)) can close it. Everything below that bound keeps
    // the gap too wide no matter how the larger position grows.
    const uint32_t span = static_cast<uint32_t>(consts[0] + 1);
    if (Off(ps, 0) < Off(ps, 1)) {
      bounds[0] = Off(ps, 1) - span;
      bounds[1] = Off(ps, 1);
    } else {
      bounds[0] = Off(ps, 0);
      bounds[1] = Off(ps, 0) - span;
    }
  }

  double ScoreFactor(std::span<const PositionInfo> ps,
                     std::span<const int64_t> consts) const override {
    // Paper Section 3.2: f = 1 - |p1 - p2| / dist, clamped to [0, 1].
    if (consts[0] <= 0) return 1.0;
    const double diff = std::abs(static_cast<double>(Off(ps, 0)) -
                                 static_cast<double>(Off(ps, 1)));
    return std::clamp(1.0 - diff / static_cast<double>(consts[0]), 0.0, 1.0);
  }
};

/// odistance(p1, p2, d): p1 strictly before p2 with at most d intervening.
class OrderedDistancePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "odistance"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 1; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps,
            std::span<const int64_t> consts) const override {
    const int64_t diff =
        static_cast<int64_t>(Off(ps, 1)) - static_cast<int64_t>(Off(ps, 0));
    return diff > 0 && diff <= consts[0] + 1;
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t> consts,
                     std::span<uint32_t> bounds) const override {
    const uint32_t span = static_cast<uint32_t>(consts[0] + 1);
    if (Off(ps, 1) <= Off(ps, 0)) {
      // Wrong order: p2 must pass p1.
      bounds[0] = Off(ps, 0);
      bounds[1] = Off(ps, 0) + 1;
    } else {
      // Right order but gap too wide: p1 must catch up to p2 - span.
      bounds[0] = Off(ps, 1) - span;
      bounds[1] = Off(ps, 1);
    }
  }

  double ScoreFactor(std::span<const PositionInfo> ps,
                     std::span<const int64_t> consts) const override {
    if (consts[0] <= 0) return 1.0;
    const double diff = std::abs(static_cast<double>(Off(ps, 0)) -
                                 static_cast<double>(Off(ps, 1)));
    return std::clamp(1.0 - diff / static_cast<double>(consts[0]), 0.0, 1.0);
  }
};

/// ordered(p1, p2): p1 occurs before p2.
class OrderedPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "ordered"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return Off(ps, 0) < Off(ps, 1);
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t>,
                     std::span<uint32_t> bounds) const override {
    // p2 <= p1: any p2' <= p1 stays unordered relative to any p1' >= p1.
    bounds[0] = Off(ps, 0);
    bounds[1] = Off(ps, 0) + 1;
  }
};

/// samepara(p1, p2): both positions in the same paragraph.
class SameParaPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "samepara"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return ps[0].paragraph == ps[1].paragraph;
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t>,
                     std::span<uint32_t> bounds) const override {
    // Paragraph ordinals are monotone in offset, so the position in the
    // earlier paragraph can never match anything at or above the other
    // position's paragraph until it advances.
    if (ps[0].paragraph < ps[1].paragraph) {
      bounds[0] = Off(ps, 0) + 1;
      bounds[1] = Off(ps, 1);
    } else {
      bounds[0] = Off(ps, 0);
      bounds[1] = Off(ps, 1) + 1;
    }
  }
};

/// samesentence(p1, p2): both positions in the same sentence.
class SameSentencePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "samesentence"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return ps[0].sentence == ps[1].sentence;
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t>,
                     std::span<uint32_t> bounds) const override {
    if (ps[0].sentence < ps[1].sentence) {
      bounds[0] = Off(ps, 0) + 1;
      bounds[1] = Off(ps, 1);
    } else {
      bounds[0] = Off(ps, 0);
      bounds[1] = Off(ps, 1) + 1;
    }
  }
};

/// window(p1..pn, w): all n positions within a span of w tokens.
class WindowPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "window"; }
  int arity() const override { return kVariadic; }
  int num_constants() const override { return 1; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps,
            std::span<const int64_t> consts) const override {
    uint32_t lo = ps[0].offset, hi = ps[0].offset;
    for (const PositionInfo& p : ps) {
      lo = std::min(lo, p.offset);
      hi = std::max(hi, p.offset);
    }
    return hi - lo <= consts[0];
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t> consts,
                     std::span<uint32_t> bounds) const override {
    uint32_t lo = ps[0].offset, hi = ps[0].offset;
    size_t lo_idx = 0;
    for (size_t i = 0; i < ps.size(); ++i) {
      if (ps[i].offset < lo) {
        lo = ps[i].offset;
        lo_idx = i;
      }
      hi = std::max(hi, ps[i].offset);
    }
    // The minimum must enter [hi - w, ...]; while it stays below, the span
    // only grows as other positions advance.
    for (size_t i = 0; i < ps.size(); ++i) bounds[i] = ps[i].offset;
    bounds[lo_idx] = hi - static_cast<uint32_t>(consts[0]);
  }
};

/// le(p1, p2): p1 does not occur after p2 (non-strict order). Used by the
/// NPRED engine to pin one ordering of the inverted-list cursors per
/// evaluation thread (Section 5.6.2's ordering permutations).
class LePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "le"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return Off(ps, 0) <= Off(ps, 1);
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t>,
                     std::span<uint32_t> bounds) const override {
    // p2 < p1: p2 must catch up to p1.
    bounds[0] = Off(ps, 0);
    bounds[1] = Off(ps, 0);
  }
};

/// samepos(p1, p2): the two positions coincide. Used by the FTC->FTA
/// compiler to express natural joins on shared variables (the paper's FTA
/// joins only on CNode, so variable sharing becomes an explicit selection).
class SamePosPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "samepos"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kPositive; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return Off(ps, 0) == Off(ps, 1);
  }

  void AdvanceBounds(std::span<const PositionInfo> ps, std::span<const int64_t>,
                     std::span<uint32_t> bounds) const override {
    // The smaller position can jump straight to the larger one; everything
    // in between cannot equal any position >= the larger.
    if (Off(ps, 0) < Off(ps, 1)) {
      bounds[0] = Off(ps, 1);
      bounds[1] = Off(ps, 1);
    } else {
      bounds[0] = Off(ps, 0);
      bounds[1] = Off(ps, 0);
    }
  }
};

// ---------------------------------------------------------------------------
// Negative predicates.
// ---------------------------------------------------------------------------

/// diffpos(p1, p2): the two positions differ.
class DiffPosPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "diffpos"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kNegative; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return Off(ps, 0) != Off(ps, 1);
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> ps,
                                 std::span<const int64_t>,
                                 size_t largest) const override {
    // False only when equal; any strictly larger offset for the largest
    // cursor satisfies it.
    return Off(ps, largest) + 1;
  }
};

/// not_distance(p1, p2, d): more than d intervening tokens.
class NotDistancePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "not_distance"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 1; }
  PredicateClass cls() const override { return PredicateClass::kNegative; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps,
            std::span<const int64_t> consts) const override {
    const int64_t diff = std::llabs(static_cast<int64_t>(Off(ps, 0)) -
                                    static_cast<int64_t>(Off(ps, 1)));
    return diff > consts[0] + 1;
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> ps,
                                 std::span<const int64_t> consts,
                                 size_t largest) const override {
    // Satisfied once the largest position clears smaller + d + 2.
    const size_t other = 1 - largest;
    return Off(ps, other) + static_cast<uint32_t>(consts[0]) + 2;
  }
};

/// not_ordered(p1, p2): p1 does not occur before p2.
class NotOrderedPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "not_ordered"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kNegative; }
  bool reads_structure() const override { return false; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return Off(ps, 0) >= Off(ps, 1);
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> ps,
                                 std::span<const int64_t>,
                                 size_t largest) const override {
    // Only p1 growing past p2 can satisfy it; if p2 is the cursor we are
    // allowed to move, this evaluation thread cannot produce solutions.
    if (largest == 0) return Off(ps, 1);
    return kInvalidOffset;
  }
};

/// not_samepara(p1, p2): positions in different paragraphs.
class NotSameParaPredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "not_samepara"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kNegative; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return ps[0].paragraph != ps[1].paragraph;
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> ps,
                                 std::span<const int64_t>,
                                 size_t largest) const override {
    // The largest cursor must leave the shared paragraph; paragraph breaks
    // are not knowable from offsets alone, so advance one token at a time
    // (each posting is still visited at most once per thread).
    return Off(ps, largest) + 1;
  }
};

/// not_samesentence(p1, p2): positions in different sentences.
class NotSameSentencePredicate : public PositionPredicate {
 public:
  std::string_view name() const override { return "not_samesentence"; }
  int arity() const override { return 2; }
  int num_constants() const override { return 0; }
  PredicateClass cls() const override { return PredicateClass::kNegative; }

  bool Eval(std::span<const PositionInfo> ps, std::span<const int64_t>) const override {
    return ps[0].sentence != ps[1].sentence;
  }

  uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> ps,
                                 std::span<const int64_t>,
                                 size_t largest) const override {
    return Off(ps, largest) + 1;
  }
};

}  // namespace

void RegisterBuiltinPredicates(PredicateRegistry* registry) {
  auto add = [registry](std::shared_ptr<const PositionPredicate> p) {
    Status s = registry->Register(std::move(p));
    (void)s;  // duplicates impossible for builtins
  };
  add(std::make_shared<DistancePredicate>());
  add(std::make_shared<OrderedDistancePredicate>());
  add(std::make_shared<OrderedPredicate>());
  add(std::make_shared<SameParaPredicate>());
  add(std::make_shared<SameSentencePredicate>());
  add(std::make_shared<WindowPredicate>());
  add(std::make_shared<LePredicate>());
  add(std::make_shared<SamePosPredicate>());
  add(std::make_shared<DiffPosPredicate>());
  add(std::make_shared<NotDistancePredicate>());
  add(std::make_shared<NotOrderedPredicate>());
  add(std::make_shared<NotSameParaPredicate>());
  add(std::make_shared<NotSameSentencePredicate>());
}

}  // namespace fts

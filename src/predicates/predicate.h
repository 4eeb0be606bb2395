// Position-based predicate framework (paper Sections 2.2, 5.5.2, 5.6.1).
//
// A PositionPredicate evaluates a boolean over m positions and q integer
// constants: pred(p_1..p_m, c_1..c_q). Predicates are classified:
//
//  - kPositive (Definition 1): false tuples admit a contiguous solution-free
//    region described by per-coordinate advance bounds f_i; the PPRED engine
//    uses them to skip the cartesian product in a single scan.
//  - kNegative (Section 5.6.1): false tuples are "bounded"; solutions can
//    only be reached by extending the interval between the smallest and
//    largest positions, so the NPRED engine fixes an ordering and advances
//    the largest cursor.
//  - kGeneral: anything else; such predicates force COMP (materialized)
//    evaluation.
//
// The framework is open: users can register new predicates (the paper's
// model is "extensible with respect to the set of predicates", Section 2.1).

#ifndef FTS_PREDICATES_PREDICATE_H_
#define FTS_PREDICATES_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/document.h"

namespace fts {

/// Evaluation class of a predicate; decides which engines can run it.
enum class PredicateClass {
  kPositive,
  kNegative,
  kGeneral,
};

const char* PredicateClassToString(PredicateClass cls);

/// A named boolean predicate over token positions. Implementations are
/// stateless and shared; all methods are const and thread-safe.
class PositionPredicate {
 public:
  virtual ~PositionPredicate() = default;

  /// Canonical lower-case name used in query syntax, e.g. "distance".
  virtual std::string_view name() const = 0;

  /// Number of position arguments; kVariadic for n-ary predicates.
  virtual int arity() const = 0;

  /// Number of integer constants.
  virtual int num_constants() const = 0;

  virtual PredicateClass cls() const = 0;

  /// Whether Eval or the advance hooks read PositionInfo::sentence or
  /// ::paragraph. A cursor fills them from the index's run table
  /// (index/run_table.h) only for a plan holding such a predicate, so the
  /// default is true: a predicate that says nothing gets filled positions.
  /// One that reads offsets alone returns false and spares its plans the
  /// fill.
  virtual bool reads_structure() const { return true; }

  /// Truth value on a concrete tuple. `positions.size()` must satisfy the
  /// arity contract and `consts.size() == num_constants()`.
  virtual bool Eval(std::span<const PositionInfo> positions,
                    std::span<const int64_t> consts) const = 0;

  /// Positive predicates only. Given a tuple with Eval(...) == false, fills
  /// `bounds[i]` with the offset lower bound f_i(p_1..p_n) of Definition 1:
  /// every tuple with coordinate i in [p_i, f_i) and the others >= current
  /// also fails. At least one bound is strictly greater than its current
  /// offset. Default implementation aborts (non-positive predicates).
  virtual void AdvanceBounds(std::span<const PositionInfo> positions,
                             std::span<const int64_t> consts,
                             std::span<uint32_t> bounds) const;

  /// Negative predicates only. Given a failing tuple whose largest position
  /// (under the evaluation thread's ordering) is coordinate `largest`,
  /// returns the minimal offset for that coordinate that could satisfy the
  /// predicate with the other coordinates fixed, or kInvalidOffset if no
  /// such offset exists under this ordering. Default aborts.
  virtual uint32_t NegativeAdvanceTarget(std::span<const PositionInfo> positions,
                                         std::span<const int64_t> consts,
                                         size_t largest) const;

  /// Negative predicates only: which argument is "largest" under the
  /// evaluation thread's cursor ordering (Algorithm 7 moves that one). The
  /// default picks the maximal offset, last argument on ties; the NPRED
  /// engine overrides ties with the thread's ordering permutation, which
  /// matters when two variables scan the same token list.
  virtual size_t LargestArgument(std::span<const PositionInfo> positions) const;

  /// Scoring hook for the probabilistic model (paper Section 3.2): a factor
  /// in [0,1] by which a selection scales the tuple score. The default is
  /// 1.0 (no attenuation); distance overrides it with 1 - |p1-p2|/dist.
  virtual double ScoreFactor(std::span<const PositionInfo> positions,
                             std::span<const int64_t> consts) const;

  /// Arity value meaning "any number of position arguments >= 2".
  static constexpr int kVariadic = -1;

  /// Checks an argument list against this predicate's signature.
  Status ValidateSignature(size_t num_positions, size_t num_consts) const;
};

/// Name -> predicate lookup. The default registry contains all builtins
/// (predicates/builtin.h); additional predicates may be registered, which
/// is how the language is extended per Section 2.2.
class PredicateRegistry {
 public:
  /// Registry pre-populated with the builtin predicates.
  static const PredicateRegistry& Default();

  PredicateRegistry();

  /// Registers `pred` under pred->name(); fails on duplicates.
  Status Register(std::shared_ptr<const PositionPredicate> pred);

  /// Looks up a predicate by name; nullptr if unknown.
  const PositionPredicate* Find(std::string_view name) const;

  /// Names of all registered predicates (sorted).
  std::vector<std::string> Names() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<const PositionPredicate>> preds_;
};

}  // namespace fts

#endif  // FTS_PREDICATES_PREDICATE_H_

#ifndef MQA_TESTS_COMPARATORS_REFERENCE_H_
#define MQA_TESTS_COMPARATORS_REFERENCE_H_

// The paper's comparison predicates that no production path calls: the
// Eq. 7/8 probabilities over plain Uncertain values and the Lemma 4.2 and
// weak-dominance pruning predicates over pairs. GreedySelect
// (core/greedy.cc) derives each S_p from sorted keys instead; the
// reference greedy loop (greedy_reference.h) prunes with these, and
// comparators_test pins them. Header-only because each test binary links
// only itself and the mqa library.

#include <cmath>

#include "core/pair_pool.h"
#include "stats/normal.h"
#include "stats/uncertain.h"

namespace mqa {
namespace testing_util {

/// Pr{A > B} for independent A, B given by their moments, each fixed or
/// approximately normal (the paper's Eq. 7, CLT argument): A - B ~
/// N(diff, var_sum), normalized by sqrt(Var(A) + Var(B)). The paper's text
/// omits the square root, which a normal-difference argument requires
/// (docs/DEVIATIONS.md, row D1); production's ProbQualityGreater computes
/// the same. Degenerate comparisons (both fixed) return 1, 0.5 (tie) or 0.
inline double ProbGreaterMoments(double mean_a, double var_a, double mean_b,
                                 double var_b) {
  const double var_sum = var_a + var_b;
  const double diff = mean_a - mean_b;
  if (var_sum <= 0.0) {
    if (diff > 0.0) return 1.0;
    if (diff < 0.0) return 0.0;
    return 0.5;
  }
  return 1.0 - StdNormalCdf(-diff / std::sqrt(var_sum));
}

/// Pr{A <= B}, complementary to ProbGreaterMoments (ties again give 0.5
/// so that pruning predicates stay strict).
inline double ProbLessEqMoments(double mean_a, double var_a, double mean_b,
                                double var_b) {
  const double var_sum = var_a + var_b;
  const double diff = mean_a - mean_b;
  if (var_sum <= 0.0) {
    if (diff < 0.0) return 1.0;
    if (diff > 0.0) return 0.0;
    return 0.5;
  }
  return StdNormalCdf(-diff / std::sqrt(var_sum));
}

inline double ProbGreater(const Uncertain& a, const Uncertain& b) {
  return ProbGreaterMoments(a.mean(), a.variance(), b.mean(), b.variance());
}

/// The Eq. 8 cost comparison is ProbLessEq(c_ij, c_ab).
inline double ProbLessEq(const Uncertain& a, const Uncertain& b) {
  return ProbLessEqMoments(a.mean(), a.variance(), b.mean(), b.variance());
}

/// Pr that pair `a` has a traveling cost no larger than pair `b` (Eq. 8).
inline double ProbCostLessEq(const PairRef& a, const PairRef& b) {
  return ProbLessEqMoments(a.cost_mean(), a.cost_variance(), b.cost_mean(),
                           b.cost_variance());
}

// For the normal approximation the comparison probability crosses 0.5
// exactly at equal means: Pr{A > B} = Phi((E(A)-E(B)) / sqrt(Var+Var)),
// so Pr > 0.5 <=> E(A) > E(B). The dominance predicates below therefore
// reduce to mean comparisons.

/// Lemma 4.2 — probabilistic dominance: `a` prunes `b` iff `a` is likelier
/// to have both higher quality and lower cost (Pr{q_a > q_b} > 0.5 and
/// Pr{c_a <= c_b} > 0.5). The lemma's statement in the paper has the
/// direction reversed (docs/DEVIATIONS.md, row D2).
inline bool ProbabilisticallyDominates(const PairRef& a, const PairRef& b) {
  if (!(a.cost_mean() < b.cost_mean())) return false;
  return a.EffectiveQuality().mean() > b.EffectiveQuality().mean();
}

/// The pruning the candidate set uses: Lemma 4.2 strengthened to *weak*
/// dominance — `a` prunes `b` when a is at least as good on both
/// dimensions (Pr >= 0.5) and strictly better on one, or when the two
/// pairs have identical cost/quality moments (duplicates).
///
/// Rationale (docs/DEVIATIONS.md, row D4): pairs of two predicted
/// entities all share the *same* Case-3 quality distribution, so the
/// strict lemma never prunes them against each other and S_p grows
/// quadratically. Weak dominance is selection-equivalent for Eq. 10
/// (equal-quality terms contribute identical factors; the cheaper
/// candidate is preferred by the tie-break) and restores near-linear
/// candidate-set maintenance. GreedySelect's moment-twin rule
/// (HasMomentTwin in core/greedy.cc) is the same predicate on sorted keys.
inline bool WeaklyDominatesForPruning(const PairRef& a, const PairRef& b) {
  const Uncertain qa = a.EffectiveQuality();
  const Uncertain qb = b.EffectiveQuality();
  const double ca = a.cost_mean();
  const double cb = b.cost_mean();
  if (qa.mean() < qb.mean() || ca > cb) return false;
  if (qa.mean() > qb.mean() || ca < cb) return true;
  // Exact tie on both means: prune only true moment duplicates (the kept
  // representative is interchangeable with the newcomer).
  return a.cost_variance() == b.cost_variance() &&
         qa.variance() == qb.variance();
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_COMPARATORS_REFERENCE_H_

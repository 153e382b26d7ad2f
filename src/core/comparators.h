#ifndef MQA_CORE_COMPARATORS_H_
#define MQA_CORE_COMPARATORS_H_

#include "core/pair_pool.h"
#include "stats/uncertain.h"

namespace mqa {

/// Pr{A > B} for independent quantities A, B that are either fixed or
/// approximately normal (the paper's Eq. 7, CLT argument). We normalize by
/// sqrt(Var(A) + Var(B)) — the paper's text omits the square root, which a
/// normal-difference argument requires (DESIGN.md §3.1). Degenerate
/// comparisons (both fixed) return 1, 0.5 (tie) or 0.
double ProbGreater(const Uncertain& a, const Uncertain& b);

/// Pr{A <= B}; the Eq. 8 cost comparison is ProbLessEq(c_ij, c_ab).
/// Complementary to ProbGreater (ties again give 0.5 so that pruning
/// predicates stay strict).
double ProbLessEq(const Uncertain& a, const Uncertain& b);

/// The pair predicates below fetch a pair's quality only on the branches
/// that read it.
///
/// Pr that pair `a` has a higher quality-score increase than pair `b`
/// (Eq. 7 applied to the raw qualities; see model/candidate_pair.h).
double ProbQualityGreater(const PairRef& a, const PairRef& b);

/// Pr that pair `a` has a traveling cost no larger than pair `b` (Eq. 8).
double ProbCostLessEq(const PairRef& a, const PairRef& b);

/// Lemma 4.1 — bound-based dominance: `a` dominates `b` iff
/// ub_cost(a) < lb_cost(b) and lb_quality(a) > ub_quality(b).
bool Dominates(const PairRef& a, const PairRef& b);

/// Lemma 4.2 — probabilistic dominance: `a` prunes `b` iff `a` is likelier
/// to have both higher quality and lower cost
/// (Pr{q_a > q_b} > 0.5 and Pr{c_a <= c_b} > 0.5). See DESIGN.md §3.2 for
/// the direction erratum in the paper's statement.
bool ProbabilisticallyDominates(const PairRef& a, const PairRef& b);

/// The pruning predicate the candidate set actually uses: Lemma 4.2
/// strengthened to *weak* dominance — `a` prunes `b` when a is at least
/// as good on both dimensions (Pr >= 0.5) and strictly better on one, or
/// when the two pairs have identical cost/quality moments (duplicates).
///
/// Rationale (DESIGN.md §3.8): pairs of two predicted entities all share
/// the *same* Case-3 quality distribution, so the strict lemma never
/// prunes them against each other and S_p grows quadratically. Weak
/// dominance is selection-equivalent for Eq. 10 (equal-quality terms
/// contribute identical factors; the cheaper candidate is preferred by
/// the tie-break) and restores near-linear candidate-set maintenance.
bool WeaklyDominatesForPruning(const PairRef& a, const PairRef& b);

}  // namespace mqa

#endif  // MQA_CORE_COMPARATORS_H_

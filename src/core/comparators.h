#ifndef MQA_CORE_COMPARATORS_H_
#define MQA_CORE_COMPARATORS_H_

#include "core/pair_pool.h"

namespace mqa {

/// Pr that pair `a` has a higher quality-score increase than pair `b`:
/// the paper's Eq. 7 applied to the raw qualities (see
/// model/candidate_pair.h), each fixed or approximately normal (CLT
/// argument). The mean gap is normalized by sqrt(Var(a) + Var(b)); the
/// paper's text omits the square root, which a normal-difference argument
/// requires (docs/DEVIATIONS.md, row D1). Two fixed qualities compare to
/// 1, 0.5 (tie) or 0.
double ProbQualityGreater(const PairRef& a, const PairRef& b);

/// Lemma 4.1 — bound-based dominance: `a` dominates `b` iff
/// ub_cost(a) < lb_cost(b) and lb_quality(a) > ub_quality(b).
bool Dominates(const PairRef& a, const PairRef& b);

}  // namespace mqa

#endif  // MQA_CORE_COMPARATORS_H_

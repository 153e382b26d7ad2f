#include "core/comparators.h"

#include <cmath>

#include "stats/normal.h"

namespace mqa {

namespace {

double ProbGreaterMoments(double mean_a, double var_a, double mean_b,
                          double var_b) {
  const double var_sum = var_a + var_b;
  const double diff = mean_a - mean_b;
  if (var_sum <= 0.0) {
    if (diff > 0.0) return 1.0;
    if (diff < 0.0) return 0.0;
    return 0.5;
  }
  // Pr{A - B > 0} with A - B ~ N(diff, var_sum).
  return 1.0 - StdNormalCdf(-diff / std::sqrt(var_sum));
}

double ProbLessEqMoments(double mean_a, double var_a, double mean_b,
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

}  // namespace

double ProbGreater(const Uncertain& a, const Uncertain& b) {
  return ProbGreaterMoments(a.mean(), a.variance(), b.mean(), b.variance());
}

double ProbLessEq(const Uncertain& a, const Uncertain& b) {
  return ProbLessEqMoments(a.mean(), a.variance(), b.mean(), b.variance());
}

double ProbQualityGreater(const PairRef& a, const PairRef& b) {
  const Uncertain qa = a.EffectiveQuality();
  const Uncertain qb = b.EffectiveQuality();
  return ProbGreaterMoments(qa.mean(), qa.variance(), qb.mean(),
                            qb.variance());
}

double ProbCostLessEq(const PairRef& a, const PairRef& b) {
  return ProbLessEqMoments(a.cost_mean(), a.cost_variance(), b.cost_mean(),
                           b.cost_variance());
}

bool Dominates(const PairRef& a, const PairRef& b) {
  if (!(a.cost_ub() < b.cost_lb())) return false;
  return a.EffectiveQuality().lb() > b.EffectiveQuality().ub();
}

// For the normal/CLT approximation the comparison probability crosses 0.5
// exactly at equal means: Pr{A > B} = Phi((E(A)-E(B)) / sqrt(Var+Var)),
// so Pr > 0.5 <=> E(A) > E(B). The dominance predicates below therefore
// reduce to mean comparisons — no CDF evaluations in the pruning hot loop.

bool ProbabilisticallyDominates(const PairRef& a, const PairRef& b) {
  if (!(a.cost_mean() < b.cost_mean())) return false;
  return a.EffectiveQuality().mean() > b.EffectiveQuality().mean();
}

bool WeaklyDominatesForPruning(const PairRef& a, const PairRef& b) {
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

}  // namespace mqa

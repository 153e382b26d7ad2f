#include "core/comparators.h"

#include <cmath>

#include "stats/normal.h"

namespace mqa {

double ProbQualityGreater(const PairRef& a, const PairRef& b) {
  const Uncertain qa = a.EffectiveQuality();
  const Uncertain qb = b.EffectiveQuality();
  const double var_sum = qa.variance() + qb.variance();
  const double diff = qa.mean() - qb.mean();
  if (var_sum <= 0.0) {
    if (diff > 0.0) return 1.0;
    if (diff < 0.0) return 0.0;
    return 0.5;
  }
  // Pr{A - B > 0} with A - B ~ N(diff, var_sum).
  return 1.0 - StdNormalCdf(-diff / std::sqrt(var_sum));
}

bool Dominates(const PairRef& a, const PairRef& b) {
  if (!(a.cost_ub() < b.cost_lb())) return false;
  return a.EffectiveQuality().lb() > b.EffectiveQuality().ub();
}

}  // namespace mqa

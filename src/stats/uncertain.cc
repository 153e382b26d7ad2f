#include "stats/uncertain.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace mqa {

void Uncertain::FailInvalid(double mean, double variance, double lb,
                            double ub) {
  MQA_CHECK(variance >= 0.0) << "negative variance " << variance;
  MQA_CHECK(lb <= ub) << "invalid bounds [" << lb << ", " << ub << "]";
  const double slack = 1e-9 * (1.0 + std::abs(mean));
  MQA_CHECK(mean >= lb - slack && mean <= ub + slack)
      << "mean " << mean << " outside [" << lb << ", " << ub << "]";
  std::abort();  // unreachable: the inline test is these three checks
}

Uncertain Uncertain::Add(const Uncertain& other) const {
  return Uncertain(mean_ + other.mean_, variance_ + other.variance_,
                   lb_ + other.lb_, ub_ + other.ub_);
}

Uncertain Uncertain::BernoulliThin(double p) const {
  MQA_CHECK(p >= 0.0 && p <= 1.0) << "probability out of range: " << p;
  if (p >= 1.0) return *this;
  if (p <= 0.0) return Fixed(0.0);
  const double mean = p * mean_;
  const double var = p * variance_ + p * (1.0 - p) * mean_ * mean_;
  return Uncertain(mean, var, std::min(lb_, 0.0), std::max(ub_, 0.0));
}

std::ostream& operator<<(std::ostream& os, const Uncertain& u) {
  if (u.IsFixed()) return os << u.mean();
  return os << "N(" << u.mean() << ", " << u.variance() << ")[" << u.lb()
            << ", " << u.ub() << "]";
}

}  // namespace mqa

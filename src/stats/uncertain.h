#ifndef MQA_STATS_UNCERTAIN_H_
#define MQA_STATS_UNCERTAIN_H_

#include <algorithm>
#include <cmath>
#include <ostream>

namespace mqa {

/// A scalar quantity that may be a fixed value (current worker/task pairs)
/// or a random variable summarized by mean, variance and hard bounds
/// (pairs involving predicted workers/tasks — paper Section III-B).
///
/// The bounds [lb, ub] are *support* bounds used by the Lemma 4.1
/// dominance pruning; mean/variance feed the Eq. 7/8 CLT comparisons.
class Uncertain {
 public:
  /// Constructs a degenerate (deterministic) value.
  static Uncertain Fixed(double value) {
    return Uncertain(value, 0.0, value, value);
  }

  /// Constructs a random quantity. Requires lb <= mean <= ub, variance >= 0.
  Uncertain(double mean, double variance, double lb, double ub)
      : mean_(mean), variance_(variance), lb_(lb), ub_(ub) {
    // Numerical slack: sample means can fall epsilon outside the bounds.
    const double slack = 1e-9 * (1.0 + std::abs(mean));
    if (!(variance >= 0.0 && lb <= ub && mean >= lb - slack &&
          mean <= ub + slack)) {
      FailInvalid(mean, variance, lb, ub);
    }
    mean_ = std::clamp(mean, lb, ub);
  }

  Uncertain() : Uncertain(0.0, 0.0, 0.0, 0.0) {}

  double mean() const { return mean_; }
  double variance() const { return variance_; }
  double lb() const { return lb_; }
  double ub() const { return ub_; }

  /// True when the value is deterministic (zero variance, tight bounds).
  bool IsFixed() const { return variance_ == 0.0 && lb_ == ub_; }

  /// Linear transform a*X + b (variance scales by a^2; bounds follow,
  /// flipping when a < 0).
  Uncertain AffineTransform(double a, double b) const {
    const double lo = a >= 0.0 ? a * lb_ + b : a * ub_ + b;
    const double hi = a >= 0.0 ? a * ub_ + b : a * lb_ + b;
    return Uncertain(a * mean_ + b, a * a * variance_, lo, hi);
  }

  /// Sum of two independent quantities.
  Uncertain Add(const Uncertain& other) const;

  /// Thinning by an independent Bernoulli(p) indicator: the value is X with
  /// probability p and 0 otherwise. Used to fold the paper's existence
  /// probability p̂_ij of predicted pairs into the quality increase:
  ///   E = p E(X),  Var = p Var(X) + p (1-p) E(X)^2,  lb -> min(lb, 0).
  Uncertain BernoulliThin(double p) const;

 private:
  // The constructor's checks, out of line with their messages: aborts
  // naming the first one these arguments fail.
  [[noreturn]] static void FailInvalid(double mean, double variance,
                                       double lb, double ub);

  double mean_;
  double variance_;
  double lb_;
  double ub_;
};

std::ostream& operator<<(std::ostream& os, const Uncertain& u);

}  // namespace mqa

#endif  // MQA_STATS_UNCERTAIN_H_

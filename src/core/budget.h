#ifndef MQA_CORE_BUDGET_H_
#define MQA_CORE_BUDGET_H_

#include "core/pair_pool.h"

namespace mqa {

/// Tracks the traveling-cost budget during greedy selection.
///
/// The assigner optimizes over current *and* predicted entities with
/// per-instance budget B each ("Bmax is the available budget in both
/// current and next time instances", paper Section IV-C). We therefore
/// keep two pots of size B:
///   * current pot — drawn by current-current pairs (fixed costs, tracked
///     exactly);
///   * future pot — drawn by pairs involving a predicted entity. Following
///     Eq. 9, the committed load of this pot is the sum of the selected
///     pairs' cost *lower bounds*, and admission of a new pair is the
///     chance constraint Pr{load + c̃ <= B} > delta evaluated via the CLT
///     normal approximation.
/// Only current-current pairs are ever emitted, so the final output always
/// satisfies the hard per-instance constraint. The paper states neither
/// the two pots nor the lower-bound accounting (docs/DEVIATIONS.md, row
/// D13).
///
/// All checks read only cost moments + the predicted flag, so they never
/// touch a pair's quality statistics.
class BudgetTracker {
 public:
  /// `budget` is B (per pot); `delta` the Eq. 9 confidence level.
  BudgetTracker(double budget, double delta);

  /// Cheap reject (paper Fig. 5 line 6): the pair's lower-bound cost
  /// already exceeds the remaining budget of its pot.
  bool QuickReject(const PairRef& pair) const {
    return QuickRejectCost(pair.cost_lb(), pair.involves_predicted());
  }

  /// Full admission test: hard check for fixed-cost pairs, Eq. 9 chance
  /// constraint for uncertain-cost pairs.
  bool Admits(const PairRef& pair) const {
    return AdmitsCost(pair.cost_mean(), pair.cost_variance(),
                      pair.involves_predicted());
  }

  /// Records a selected pair. Requires Admits(pair).
  void Commit(const PairRef& pair) {
    CommitCost(pair.cost_mean(), pair.cost_lb(), pair.involves_predicted());
  }

  double budget() const { return budget_; }
  double delta() const { return delta_; }
  double current_spent() const { return current_spent_; }
  double future_lb_spent() const { return future_lb_spent_; }

 private:
  bool QuickRejectCost(double cost_lb, bool involves_predicted) const;
  bool AdmitsCost(double cost_mean, double cost_variance,
                  bool involves_predicted) const;
  void CommitCost(double cost_mean, double cost_lb, bool involves_predicted);

  double budget_;
  double delta_;
  double current_spent_ = 0.0;
  double future_lb_spent_ = 0.0;
};

}  // namespace mqa

#endif  // MQA_CORE_BUDGET_H_

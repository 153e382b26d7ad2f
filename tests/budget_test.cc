#include "core/budget.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mqa {
namespace {

CandidatePair CurrentPair(double cost) {
  CandidatePair p;
  p.cost = Uncertain::Fixed(cost);
  p.quality = Uncertain::Fixed(1.0);
  return p;
}

CandidatePair PredictedPair(double cost_mean, double cost_var, double cost_lb,
                            double cost_ub) {
  CandidatePair p;
  p.cost = Uncertain(cost_mean, cost_var, cost_lb, cost_ub);
  p.quality = Uncertain::Fixed(1.0);
  p.involves_predicted = true;
  p.existence = 0.8;
  return p;
}

/// A hand-built pool holding `pairs` in order (pair k on worker k and
/// task k), so the tracker runs on the PairRef views production code uses.
PairPool PoolOf(std::vector<CandidatePair> pairs) {
  PairPoolBuilder builder(pairs.size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    pairs[k].worker_index = static_cast<int32_t>(k);
    pairs[k].task_index = static_cast<int32_t>(k);
    builder.Add(pairs[k]);
  }
  return std::move(builder).Build();
}

TEST(BudgetTrackerTest, CurrentPotHardLimit) {
  const PairPool pool =
      PoolOf({CurrentPair(6.0), CurrentPair(4.0), CurrentPair(4.1)});
  BudgetTracker budget(10.0, 0.5);
  EXPECT_TRUE(budget.Admits(pool.pair(0)));
  budget.Commit(pool.pair(0));
  EXPECT_DOUBLE_EQ(budget.current_spent(), 6.0);
  EXPECT_TRUE(budget.Admits(pool.pair(1)));
  EXPECT_FALSE(budget.Admits(pool.pair(2)));
}

TEST(BudgetTrackerTest, PotsAreIndependent) {
  const PairPool pool =
      PoolOf({CurrentPair(9.0), PredictedPair(8.0, 0.0, 8.0, 8.0)});
  BudgetTracker budget(10.0, 0.5);
  budget.Commit(pool.pair(0));
  // The future pot is untouched: a predicted pair of lb 8 still fits.
  const PairRef pred = pool.pair(1);
  EXPECT_FALSE(budget.QuickReject(pred));
  EXPECT_TRUE(budget.Admits(pred));
  budget.Commit(pred);
  EXPECT_DOUBLE_EQ(budget.future_lb_spent(), 8.0);
  EXPECT_DOUBLE_EQ(budget.current_spent(), 9.0);
}

TEST(BudgetTrackerTest, QuickRejectUsesLowerBound) {
  const PairPool pool =
      PoolOf({CurrentPair(7.0), CurrentPair(3.5), CurrentPair(2.9),
              PredictedPair(12.0, 9.0, 9.0, 15.0)});
  BudgetTracker budget(10.0, 0.5);
  budget.Commit(pool.pair(0));
  EXPECT_TRUE(budget.QuickReject(pool.pair(1)));
  EXPECT_FALSE(budget.QuickReject(pool.pair(2)));
  // Predicted pair with lb below future headroom passes even if its mean
  // is large.
  EXPECT_FALSE(budget.QuickReject(pool.pair(3)));
}

TEST(BudgetTrackerTest, ChanceConstraintDelta) {
  // Headroom 10; pair cost N(10, var 4): Pr{cost <= 10} = 0.5.
  const PairPool pool = PoolOf({PredictedPair(10.0, 4.0, 6.0, 14.0)});
  BudgetTracker loose(10.0, 0.4);
  BudgetTracker strict(10.0, 0.6);
  EXPECT_TRUE(loose.Admits(pool.pair(0)));    // 0.5 > 0.4
  EXPECT_FALSE(strict.Admits(pool.pair(0)));  // 0.5 <= 0.6
}

TEST(BudgetTrackerTest, ChanceConstraintShrinksWithCommits) {
  const PairPool pool = PoolOf({PredictedPair(6.0, 1.0, 4.0, 8.0)});
  const PairRef pair = pool.pair(0);
  BudgetTracker budget(10.0, 0.5);
  EXPECT_TRUE(budget.Admits(pair));
  budget.Commit(pair);  // future lb spent = 4
  // Second identical pair: headroom 6, mean 6 -> Pr = 0.5, not > 0.5.
  EXPECT_FALSE(budget.Admits(pair));
}

TEST(BudgetTrackerTest, ZeroBudgetAdmitsFreePairsOnly) {
  const PairPool pool = PoolOf({CurrentPair(0.0), CurrentPair(0.01)});
  BudgetTracker budget(0.0, 0.5);
  EXPECT_TRUE(budget.Admits(pool.pair(0)));
  EXPECT_FALSE(budget.Admits(pool.pair(1)));
}

}  // namespace
}  // namespace mqa

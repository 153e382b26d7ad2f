// The reference candidate set (tests/greedy_reference.h) and the Eq. 10
// selection over it.

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "core/selection.h"
#include "tests/greedy_reference.h"

namespace mqa {
namespace {

using testing_util::CandidateSet;

PairPool FixedPool(const std::vector<std::pair<double, double>>& cost_quality) {
  PairPoolBuilder builder(cost_quality.size(), cost_quality.size());
  int32_t k = 0;
  for (const auto& [c, q] : cost_quality) {
    CandidatePair p;
    p.worker_index = k;
    p.task_index = k;
    ++k;
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
    builder.Add(p);
  }
  return std::move(builder).Build();
}

bool Contains(const CandidateSet& set, int32_t id) {
  const auto& c = set.candidates();
  return std::find(c.begin(), c.end(), id) != c.end();
}

TEST(CandidateSetTest, KeepsSkyline) {
  // (cost, quality): pair 1 dominates pair 0 probabilistically; pair 2 is
  // incomparable with pair 1 (cheaper, lower quality).
  const auto pool = FixedPool({{3.0, 2.0}, {1.0, 5.0}, {0.5, 1.0}});
  CandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));  // evicts 0
  EXPECT_TRUE(set.Offer(2));
  EXPECT_FALSE(Contains(set, 0));
  EXPECT_TRUE(Contains(set, 1));
  EXPECT_TRUE(Contains(set, 2));
}

TEST(CandidateSetTest, RejectsDominatedNewcomer) {
  const auto pool = FixedPool({{1.0, 5.0}, {3.0, 2.0}});
  CandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_FALSE(set.Offer(1));
  EXPECT_EQ(set.size(), 1u);
}

TEST(CandidateSetTest, ExactDuplicatesDeduplicate) {
  // Identical moments: the second offer is interchangeable with the first
  // and is dropped (weak-dominance rule, DESIGN.md §3.8).
  const auto pool = FixedPool({{2.0, 3.0}, {2.0, 3.0}});
  CandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_FALSE(set.Offer(1));
  EXPECT_EQ(set.size(), 1u);
}

TEST(CandidateSetTest, EqualQualityCheaperCostPrunes) {
  // Same quality, strictly cheaper: the cheap pair replaces the pricey
  // one (weak dominance with a strict cost edge).
  const auto pool = FixedPool({{2.0, 3.0}, {1.0, 3.0}});
  CandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(Contains(set, 1));
}

TEST(CandidateSetTest, EqualMeansDifferentVarianceCoexist) {
  // Equal means but different spread: not a duplicate, no strict edge on
  // either dimension -> both stay.
  PairPoolBuilder builder(2, 2);
  CandidatePair a;
  a.worker_index = 0;
  a.task_index = 0;
  a.cost = Uncertain::Fixed(2.0);
  a.quality = Uncertain(3.0, 0.5, 1.0, 5.0);
  a.involves_predicted = true;
  a.existence = 1.0;
  builder.Add(a);
  CandidatePair b;
  b.worker_index = 1;
  b.task_index = 1;
  b.cost = Uncertain::Fixed(2.0);
  b.quality = Uncertain(3.0, 2.0, 0.0, 6.0);
  b.involves_predicted = true;
  b.existence = 1.0;
  builder.Add(b);
  const PairPool pool = std::move(builder).Build();
  CandidateSet set(pool);
  EXPECT_TRUE(set.Offer(0));
  EXPECT_TRUE(set.Offer(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(CandidateSetTest, SurvivorsAreMutuallyNonDominated) {
  const auto pool = FixedPool({{1.0, 1.0},
                               {2.0, 2.0},
                               {3.0, 3.0},
                               {1.5, 0.5},
                               {2.5, 2.6},
                               {0.5, 2.9}});
  CandidateSet set(pool);
  for (int32_t id = 0; id < static_cast<int32_t>(pool.size()); ++id) {
    set.Offer(id);
  }
  // Pair 5 (cost 0.5, q 2.9) prunes 0,1,3; survivors: 5, 2 (q 3.0),
  // maybe 4 (2.5, 2.6) which is beaten by 5 on both -> pruned.
  EXPECT_TRUE(Contains(set, 5));
  EXPECT_TRUE(Contains(set, 2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(CandidateSetTest, ClearResets) {
  const auto pool = FixedPool({{1.0, 1.0}});
  CandidateSet set(pool);
  set.Offer(0);
  EXPECT_FALSE(set.empty());
  set.Clear();
  EXPECT_TRUE(set.empty());
}

TEST(SelectBestPairTest, PicksHighestQualityUnderBudget) {
  const auto pool = FixedPool({{1.0, 5.0}, {0.5, 3.0}, {9.0, 8.0}});
  CandidateSet set(pool);
  for (int32_t id = 0; id < 3; ++id) set.Offer(id);
  BudgetTracker budget(5.0, 0.5);
  // Pair 2 has the best quality but exceeds the budget.
  EXPECT_EQ(SelectBestPair(pool, set.candidates(), budget), 0);
}

TEST(SelectBestPairTest, TieBreaksTowardCheaper) {
  const auto pool = FixedPool({{2.0, 3.0}, {1.0, 3.0}});
  CandidateSet set(pool);
  set.Offer(0);
  set.Offer(1);
  BudgetTracker budget(10.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, set.candidates(), budget), 1);
}

TEST(SelectBestPairTest, NoAdmissibleReturnsMinusOne) {
  const auto pool = FixedPool({{7.0, 5.0}});
  CandidateSet set(pool);
  set.Offer(0);
  BudgetTracker budget(5.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, set.candidates(), budget), -1);
}

TEST(SelectBestPairTest, EmptyCandidates) {
  const auto pool = FixedPool({});
  BudgetTracker budget(5.0, 0.5);
  EXPECT_EQ(SelectBestPair(pool, {}, budget), -1);
}

TEST(SelectBestPairTest, TopKCapStillFindsMaxQuality) {
  // More candidates than the Eq. 10 evaluation cap (48): the winner must
  // still be the highest-quality admissible pair.
  std::vector<std::pair<double, double>> specs;
  for (int i = 0; i < 200; ++i) {
    specs.push_back({1.0 + 0.01 * i, 1.0 + 0.01 * i});
  }
  specs.push_back({0.5, 9.0});  // the clear winner, id 200
  const auto pool = FixedPool(specs);
  std::vector<int32_t> ids;
  for (int32_t i = 0; i <= 200; ++i) ids.push_back(i);
  BudgetTracker budget(100.0, 0.5);
  bool capped = false;
  EXPECT_EQ(SelectBestPair(pool, ids, budget, &capped), 200);
  EXPECT_TRUE(capped);
}

TEST(SelectBestPairTest, CapRespectsBudgetFilterFirst) {
  // The best-quality candidates violate the budget; the winner is the
  // best *admissible* one even past the cap boundary.
  std::vector<std::pair<double, double>> specs;
  for (int i = 0; i < 100; ++i) {
    specs.push_back({50.0, 5.0 + 0.01 * i});  // inadmissible (budget 10)
  }
  specs.push_back({1.0, 2.0});  // admissible, id 100
  const auto pool = FixedPool(specs);
  std::vector<int32_t> ids;
  for (int32_t i = 0; i <= 100; ++i) ids.push_back(i);
  BudgetTracker budget(10.0, 0.5);
  bool capped = true;
  EXPECT_EQ(SelectBestPair(pool, ids, budget, &capped), 100);
  EXPECT_FALSE(capped) << "the cap counts admissible candidates only";
}

}  // namespace
}  // namespace mqa

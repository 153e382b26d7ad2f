#include "core/comparators.h"

#include <utility>

#include <gtest/gtest.h>

#include "tests/comparators_reference.h"

namespace mqa {
namespace {

using testing_util::ProbabilisticallyDominates;
using testing_util::ProbCostLessEq;
using testing_util::ProbGreater;
using testing_util::ProbLessEq;
using testing_util::WeaklyDominatesForPruning;

CandidatePair FixedPair(double cost, double quality) {
  CandidatePair p;
  p.cost = Uncertain::Fixed(cost);
  p.quality = Uncertain::Fixed(quality);
  return p;
}

CandidatePair UncertainPair(double cost_mean, double cost_var, double cost_lb,
                            double cost_ub, double q_mean, double q_var,
                            double q_lb, double q_ub, double existence = 1.0) {
  CandidatePair p;
  p.cost = Uncertain(cost_mean, cost_var, cost_lb, cost_ub);
  p.quality = Uncertain(q_mean, q_var, q_lb, q_ub);
  p.existence = existence;
  p.involves_predicted = true;
  return p;
}

/// A hand-built pool holding `a` as pair 0 and `b` as pair 1, so the
/// predicates run on the PairRef views production code uses.
PairPool PoolOf(CandidatePair a, CandidatePair b) {
  PairPoolBuilder builder(/*num_workers=*/2, /*num_tasks=*/2);
  a.worker_index = 0;
  a.task_index = 0;
  b.worker_index = 1;
  b.task_index = 1;
  builder.Add(a);
  builder.Add(b);
  return std::move(builder).Build();
}

TEST(ProbGreaterTest, FixedComparisons) {
  EXPECT_DOUBLE_EQ(ProbGreater(Uncertain::Fixed(2), Uncertain::Fixed(1)), 1.0);
  EXPECT_DOUBLE_EQ(ProbGreater(Uncertain::Fixed(1), Uncertain::Fixed(2)), 0.0);
  EXPECT_DOUBLE_EQ(ProbGreater(Uncertain::Fixed(1), Uncertain::Fixed(1)), 0.5);
}

TEST(ProbGreaterTest, EqualMeansGiveHalf) {
  const Uncertain a(1.0, 0.2, 0.0, 2.0);
  const Uncertain b(1.0, 0.3, 0.0, 2.0);
  EXPECT_NEAR(ProbGreater(a, b), 0.5, 1e-12);
}

TEST(ProbGreaterTest, HigherMeanWins) {
  const Uncertain a(2.0, 0.1, 1.0, 3.0);
  const Uncertain b(1.0, 0.1, 0.0, 2.0);
  EXPECT_GT(ProbGreater(a, b), 0.9);
  EXPECT_LT(ProbGreater(b, a), 0.1);
}

TEST(ProbGreaterTest, Complementarity) {
  const Uncertain a(1.3, 0.2, 0.0, 3.0);
  const Uncertain b(1.9, 0.4, 0.5, 3.5);
  EXPECT_NEAR(ProbGreater(a, b) + ProbLessEq(a, b), 1.0, 1e-12);
}

TEST(ProbGreaterTest, VarianceWidensUncertainty) {
  // With more variance, the same mean gap yields a less decisive
  // probability.
  const Uncertain b(1.0, 0.1, 0.0, 2.0);
  const double narrow = ProbGreater(Uncertain(2.0, 0.01, 1.0, 3.0), b);
  const double wide = ProbGreater(Uncertain(2.0, 4.0, 0.0, 4.0), b);
  EXPECT_GT(narrow, wide);
  EXPECT_GT(wide, 0.5);
}

TEST(ProbGreaterTest, NormalizationUsesSqrt) {
  // Mean gap 1 with Var(a)+Var(b)=4 -> z = 1/2, Pr = Phi(0.5) = 0.6915.
  const Uncertain a(2.0, 2.0, -10.0, 10.0);
  const Uncertain b(1.0, 2.0, -10.0, 10.0);
  EXPECT_NEAR(ProbGreater(a, b), 0.6914624612740131, 1e-9);
  // Production's pair comparison normalizes the same way.
  const PairPool pool =
      PoolOf(UncertainPair(1.0, 0.0, 1.0, 1.0, 2.0, 2.0, -10.0, 10.0),
             UncertainPair(1.0, 0.0, 1.0, 1.0, 1.0, 2.0, -10.0, 10.0));
  EXPECT_NEAR(ProbQualityGreater(pool.pair(0), pool.pair(1)),
              0.6914624612740131, 1e-9);
}

TEST(ProbLessEqTest, FixedComparisons) {
  EXPECT_DOUBLE_EQ(ProbLessEq(Uncertain::Fixed(1), Uncertain::Fixed(2)), 1.0);
  EXPECT_DOUBLE_EQ(ProbLessEq(Uncertain::Fixed(2), Uncertain::Fixed(1)), 0.0);
  EXPECT_DOUBLE_EQ(ProbLessEq(Uncertain::Fixed(1), Uncertain::Fixed(1)), 0.5);
}

TEST(DominanceTest, StrictDominance) {
  const PairPool pool = PoolOf(FixedPair(/*cost=*/1.0, /*quality=*/5.0),
                               FixedPair(/*cost=*/3.0, /*quality=*/2.0));
  const PairRef good = pool.pair(0);
  const PairRef bad = pool.pair(1);
  EXPECT_TRUE(Dominates(good, bad));
  EXPECT_FALSE(Dominates(bad, good));
}

TEST(DominanceTest, NoDominanceOnTies) {
  const PairPool pool = PoolOf(FixedPair(1.0, 5.0),
                               FixedPair(1.0, 2.0));  // same cost
  // ub_cost(a) < lb_cost(b) fails (equal).
  EXPECT_FALSE(Dominates(pool.pair(0), pool.pair(1)));
}

TEST(DominanceTest, OverlappingBoundsDoNotDominate) {
  const PairPool pool =
      PoolOf(UncertainPair(1.0, 0.1, 0.5, 1.5, 4.0, 0.1, 3.0, 5.0),
             UncertainPair(2.0, 0.1, 1.2, 2.8, 3.0, 0.1, 2.0, 4.0));
  const PairRef a = pool.pair(0);
  const PairRef b = pool.pair(1);
  // Cost intervals [0.5,1.5] vs [1.2,2.8] overlap -> no Lemma 4.1 prune.
  EXPECT_FALSE(Dominates(a, b));
  // But a is probabilistically better on both dimensions.
  EXPECT_TRUE(ProbabilisticallyDominates(a, b));
  EXPECT_FALSE(ProbabilisticallyDominates(b, a));
  EXPECT_GT(ProbCostLessEq(a, b), 0.5);
  EXPECT_GT(ProbQualityGreater(a, b), 0.5);
}

TEST(DominanceTest, MixedStrengthNoProbabilisticDomination) {
  // a cheaper but worse quality: neither dominates.
  const PairPool pool = PoolOf(FixedPair(1.0, 2.0), FixedPair(2.0, 3.0));
  const PairRef a = pool.pair(0);
  const PairRef b = pool.pair(1);
  EXPECT_FALSE(ProbabilisticallyDominates(a, b));
  EXPECT_FALSE(ProbabilisticallyDominates(b, a));
  EXPECT_FALSE(WeaklyDominatesForPruning(a, b));
  EXPECT_FALSE(WeaklyDominatesForPruning(b, a));
}

TEST(DominanceTest, WeakDominancePrunesTiesAndDuplicates) {
  // Equal quality, cheaper: weakly dominates, strictly does not.
  const PairPool cheaper = PoolOf(FixedPair(1.0, 2.0), FixedPair(2.0, 2.0));
  EXPECT_TRUE(WeaklyDominatesForPruning(cheaper.pair(0), cheaper.pair(1)));
  EXPECT_FALSE(WeaklyDominatesForPruning(cheaper.pair(1), cheaper.pair(0)));
  EXPECT_FALSE(ProbabilisticallyDominates(cheaper.pair(0), cheaper.pair(1)));
  // Identical moments prune each other; equal means with different
  // variances do not.
  const PairPool twins =
      PoolOf(UncertainPair(1.0, 0.1, 0.5, 1.5, 2.0, 0.2, 1.0, 3.0),
             UncertainPair(1.0, 0.1, 0.5, 1.5, 2.0, 0.2, 1.0, 3.0));
  EXPECT_TRUE(WeaklyDominatesForPruning(twins.pair(0), twins.pair(1)));
  const PairPool spread =
      PoolOf(UncertainPair(1.0, 0.1, 0.5, 1.5, 2.0, 0.2, 1.0, 3.0),
             UncertainPair(1.0, 0.1, 0.5, 1.5, 2.0, 0.4, 1.0, 3.0));
  EXPECT_FALSE(WeaklyDominatesForPruning(spread.pair(0), spread.pair(1)));
}

TEST(EffectiveQualityTest, ComparisonsUseRawQuality) {
  // Eq. 7/10 compare raw quality distributions (paper pseudo-code);
  // the existence probability does not handicap predicted pairs.
  const PairPool pool = PoolOf(
      FixedPair(1.0, 1.2),
      UncertainPair(1.0, 0.0, 1.0, 1.0, 2.0, 0.0, 2.0, 2.0,
                    /*existence=*/0.5));
  const PairRef sure = pool.pair(0);
  const PairRef p = pool.pair(1);
  EXPECT_DOUBLE_EQ(p.EffectiveQuality().mean(), 2.0);
  EXPECT_LT(ProbQualityGreater(sure, p), 0.5);
}

TEST(EffectiveQualityTest, ThinnedVariantAvailable) {
  // The conservative Bernoulli-thinned ranking stays available.
  const PairPool pool = PoolOf(
      FixedPair(1.0, 1.0),
      UncertainPair(1.0, 0.0, 1.0, 1.0, 2.0, 0.0, 2.0, 2.0,
                    /*existence=*/0.5));
  const Uncertain thinned = pool.pair(1).ExistenceThinnedQuality();
  EXPECT_DOUBLE_EQ(thinned.mean(), 1.0);
  EXPECT_GT(thinned.variance(), 0.0);
  EXPECT_DOUBLE_EQ(thinned.lb(), 0.0);
}

}  // namespace
}  // namespace mqa

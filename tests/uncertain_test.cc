#include "stats/uncertain.h"

#include <cmath>

#include <gtest/gtest.h>

namespace mqa {
namespace {

TEST(UncertainTest, FixedValue) {
  const Uncertain u = Uncertain::Fixed(3.5);
  EXPECT_TRUE(u.IsFixed());
  EXPECT_DOUBLE_EQ(u.mean(), 3.5);
  EXPECT_DOUBLE_EQ(u.variance(), 0.0);
  EXPECT_DOUBLE_EQ(u.lb(), 3.5);
  EXPECT_DOUBLE_EQ(u.ub(), 3.5);
}

TEST(UncertainTest, RandomQuantity) {
  const Uncertain u(0.5, 0.01, 0.2, 0.9);
  EXPECT_FALSE(u.IsFixed());
  EXPECT_DOUBLE_EQ(u.mean(), 0.5);
}

TEST(UncertainTest, AffineTransformPositiveScale) {
  const Uncertain u(2.0, 4.0, 1.0, 3.0);
  const Uncertain v = u.AffineTransform(10.0, 1.0);  // cost = C*dist shape
  EXPECT_DOUBLE_EQ(v.mean(), 21.0);
  EXPECT_DOUBLE_EQ(v.variance(), 400.0);
  EXPECT_DOUBLE_EQ(v.lb(), 11.0);
  EXPECT_DOUBLE_EQ(v.ub(), 31.0);
}

TEST(UncertainTest, AffineTransformNegativeScaleFlipsBounds) {
  const Uncertain u(2.0, 4.0, 1.0, 3.0);
  const Uncertain v = u.AffineTransform(-1.0, 0.0);
  EXPECT_DOUBLE_EQ(v.mean(), -2.0);
  EXPECT_DOUBLE_EQ(v.lb(), -3.0);
  EXPECT_DOUBLE_EQ(v.ub(), -1.0);
  EXPECT_DOUBLE_EQ(v.variance(), 4.0);
}

TEST(UncertainTest, AddIndependent) {
  const Uncertain a(1.0, 0.5, 0.0, 2.0);
  const Uncertain b(2.0, 0.25, 1.5, 2.5);
  const Uncertain s = a.Add(b);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.75);
  EXPECT_DOUBLE_EQ(s.lb(), 1.5);
  EXPECT_DOUBLE_EQ(s.ub(), 4.5);
}

TEST(UncertainTest, BernoulliThinMoments) {
  // X fixed at 2, thinned with p=0.25: E=0.5, Var = p(1-p) 4 = 0.75.
  const Uncertain u = Uncertain::Fixed(2.0).BernoulliThin(0.25);
  EXPECT_DOUBLE_EQ(u.mean(), 0.5);
  EXPECT_DOUBLE_EQ(u.variance(), 0.75);
  EXPECT_DOUBLE_EQ(u.lb(), 0.0);
  EXPECT_DOUBLE_EQ(u.ub(), 2.0);
}

TEST(UncertainTest, BernoulliThinGeneral) {
  // E = p E(X); Var = p Var(X) + p(1-p) E(X)^2.
  const Uncertain x(3.0, 1.0, 1.0, 5.0);
  const Uncertain u = x.BernoulliThin(0.5);
  EXPECT_DOUBLE_EQ(u.mean(), 1.5);
  EXPECT_DOUBLE_EQ(u.variance(), 0.5 * 1.0 + 0.25 * 9.0);
  EXPECT_DOUBLE_EQ(u.lb(), 0.0);  // the thinned value can be 0
  EXPECT_DOUBLE_EQ(u.ub(), 5.0);
}

TEST(UncertainTest, BernoulliThinEdges) {
  const Uncertain x(3.0, 1.0, 1.0, 5.0);
  const Uncertain same = x.BernoulliThin(1.0);
  EXPECT_DOUBLE_EQ(same.mean(), 3.0);
  EXPECT_DOUBLE_EQ(same.variance(), 1.0);
  const Uncertain zero = x.BernoulliThin(0.0);
  EXPECT_TRUE(zero.IsFixed());
  EXPECT_DOUBLE_EQ(zero.mean(), 0.0);
}

TEST(UncertainTest, MeanClampedIntoBounds) {
  // A mean epsilon outside the bounds (numerical noise) is clamped.
  const Uncertain u(1.0 + 1e-12, 0.0, 0.0, 1.0);
  EXPECT_LE(u.mean(), u.ub());
}

TEST(UncertainDeathTest, InvalidArgumentsFailTheirNamedCheck) {
  // The constructor tests its arguments inline; each failure still
  // aborts with the message of the first check it fails, NaN included.
  EXPECT_DEATH(Uncertain(0.0, -1.0, 0.0, 0.0), "negative variance -1");
  EXPECT_DEATH(Uncertain(0.0, 0.0, 1.0, 0.0), "invalid bounds \\[1, 0\\]");
  EXPECT_DEATH(Uncertain(2.0, 0.0, 0.0, 1.0), "mean 2 outside \\[0, 1\\]");
  EXPECT_DEATH(Uncertain(NAN, 0.0, 0.0, 1.0), "mean nan outside \\[0, 1\\]");
  EXPECT_DEATH(Uncertain(0.0, 0.0, 0.0, 1.0).AffineTransform(1.0, NAN),
               "invalid bounds \\[nan, nan\\]");
}

}  // namespace
}  // namespace mqa

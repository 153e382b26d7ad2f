#include "stats/distance_stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/uniform_moments.h"

namespace mqa {
namespace {

// Monte Carlo reference for squared-distance moments between two boxes.
struct McMoments {
  double mean_sq;
  double var_sq;
  double mean_dist;
};

McMoments MonteCarlo(const BBox& a, const BBox& b, int n, uint64_t seed) {
  Rng rng(seed);
  double sum_sq = 0.0;
  double sum_4 = 0.0;
  double sum_d = 0.0;
  for (int i = 0; i < n; ++i) {
    const Point pa{rng.Uniform(a.lo().x, a.hi().x),
                   rng.Uniform(a.lo().y, a.hi().y)};
    const Point pb{rng.Uniform(b.lo().x, b.hi().x),
                   rng.Uniform(b.lo().y, b.hi().y)};
    const double d2 = SquaredDistance(pa, pb);
    sum_sq += d2;
    sum_4 += d2 * d2;
    sum_d += std::sqrt(d2);
  }
  McMoments out;
  out.mean_sq = sum_sq / n;
  out.var_sq = sum_4 / n - out.mean_sq * out.mean_sq;
  out.mean_dist = sum_d / n;
  return out;
}

TEST(DistanceStatsTest, PointToPointExact) {
  const BBox a = BBox::FromPoint({0.1, 0.1});
  const BBox b = BBox::FromPoint({0.4, 0.5});
  const auto m = ComputeSquaredDistanceMoments(a, b);
  EXPECT_NEAR(m.mean, 0.25, 1e-12);
  EXPECT_NEAR(m.variance, 0.0, 1e-12);
  const Uncertain d = DistanceBetween(a, b);
  EXPECT_TRUE(d.IsFixed());
  EXPECT_DOUBLE_EQ(d.mean(), 0.5);
}

TEST(DistanceStatsTest, SquaredMomentsMatchMonteCarloBoxBox) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 99);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 3e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 3e-2 * exact.variance);
}

TEST(DistanceStatsTest, SquaredMomentsMatchMonteCarloPointBox) {
  const BBox a = BBox::FromPoint({0.2, 0.2});
  const BBox b({0.5, 0.5}, {0.8, 0.9});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 7);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 3e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 3e-2 * (exact.variance + 1e-6));
}

TEST(DistanceStatsTest, SquaredMomentsOverlappingBoxes) {
  const BBox a({0.2, 0.2}, {0.6, 0.6});
  const BBox b({0.3, 0.3}, {0.7, 0.7});
  const auto exact = ComputeSquaredDistanceMoments(a, b);
  const auto mc = MonteCarlo(a, b, 400000, 13);
  EXPECT_NEAR(exact.mean, mc.mean_sq, 5e-3 * exact.mean);
  EXPECT_NEAR(exact.variance, mc.var_sq, 5e-2 * exact.variance);
}

TEST(DistanceStatsTest, DeltaMethodDistanceWithinBoundsAndClose) {
  const BBox a({0.1, 0.1}, {0.2, 0.3});
  const BBox b({0.7, 0.6}, {0.8, 0.9});
  const Uncertain d = DistanceBetween(a, b);
  EXPECT_DOUBLE_EQ(d.lb(), a.MinDistance(b));
  EXPECT_DOUBLE_EQ(d.ub(), a.MaxDistance(b));
  EXPECT_GE(d.mean(), d.lb());
  EXPECT_LE(d.mean(), d.ub());
  const auto mc = MonteCarlo(a, b, 400000, 21);
  // Delta method: sqrt(E Z^2) >= E Z (Jensen) but close for separated
  // boxes.
  EXPECT_NEAR(d.mean(), mc.mean_dist, 0.02 * mc.mean_dist);
}

TEST(DistanceStatsTest, IdenticalBoxesHaveZeroLowerBound) {
  const BBox a({0.4, 0.4}, {0.6, 0.6});
  const Uncertain d = DistanceBetween(a, a);
  EXPECT_DOUBLE_EQ(d.lb(), 0.0);
  EXPECT_GT(d.mean(), 0.0);  // expected distance of two uniforms is > 0
  EXPECT_GT(d.variance(), 0.0);
}

TEST(DistanceStatsTest, VarianceNonNegativeOnGridSweep) {
  // Sweep box positions; Var(Z^2) must never go negative (Eq. 3 involves
  // cancellation).
  for (double x = 0.0; x <= 0.8; x += 0.2) {
    for (double y = 0.0; y <= 0.8; y += 0.2) {
      const BBox a({x, y}, {x + 0.2, y + 0.2});
      const BBox b({0.4, 0.4}, {0.6, 0.6});
      const auto m = ComputeSquaredDistanceMoments(a, b);
      EXPECT_GE(m.variance, 0.0) << "x=" << x << " y=" << y;
    }
  }
}

TEST(DistanceStatsTest, AnalyticUnitSquareMean) {
  // Two independent uniforms on [0,1]^2: E(Z^2) = 2 * (2 * Var(U)) = 1/3.
  const BBox u({0.0, 0.0}, {1.0, 1.0});
  const auto m = ComputeSquaredDistanceMoments(u, u);
  EXPECT_NEAR(m.mean, 1.0 / 3.0, 1e-12);
}

TEST(DistanceStatsTest, MomentsOfHoldsEachAxisRawMoments) {
  const BBox box({0.1, 0.7}, {0.35, 0.7});  // zero-width y axis
  const BoxMoments m = MomentsOf(box);
  const double x[4] = {m.x.m1, m.x.m2, m.x.m3, m.x.m4};
  const double y[4] = {m.y.m1, m.y.m2, m.y.m3, m.y.m4};
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(x[k - 1], UniformRawMoment(0.1, 0.35, k)) << "k=" << k;
    EXPECT_EQ(y[k - 1], UniformRawMoment(0.7, 0.7, k)) << "k=" << k;
  }
}

TEST(DistanceStatsTest, PrecomputedMomentsAreBitIdentical) {
  const BBox boxes[] = {BBox({0.1, 0.2}, {0.3, 0.4}),
                        BBox({0.6, 0.5}, {0.9, 0.8}),
                        BBox({1.0, 0.3}, {1.0, 0.5}),
                        BBox::FromPoint({0.25, 0.75})};
  for (const BBox& w : boxes) {
    for (const BBox& t : boxes) {
      const Uncertain want = DistanceBetween(w, t);
      const Uncertain got = DistanceBetween(w, MomentsOf(w), t, MomentsOf(t));
      EXPECT_EQ(got.mean(), want.mean()) << w << " " << t;
      EXPECT_EQ(got.variance(), want.variance()) << w << " " << t;
      EXPECT_EQ(got.lb(), want.lb()) << w << " " << t;
      EXPECT_EQ(got.ub(), want.ub()) << w << " " << t;
    }
  }
}

}  // namespace
}  // namespace mqa

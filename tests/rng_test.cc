#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace mqa {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(3.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, GaussianInRangeStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.GaussianInRange(0.2, 0.3);
    EXPECT_GE(v, 0.2);
    EXPECT_LE(v, 0.3);
  }
}

TEST(RngTest, GaussianInRangeCentersOnMidpoint) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.GaussianInRange(1.0, 2.0);
  EXPECT_NEAR(sum / n, 1.5, 0.01);
}

TEST(RngTest, GaussianInRangeDegenerate) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(rng.GaussianInRange(0.7, 0.7), 0.7);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfRankOneDominates) {
  Rng rng(29);
  int rank_one = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) == 1) ++rank_one;
  }
  // With skew 1 over 100 ranks, P(rank 1) = 1/H_100 ~ 0.1928.
  EXPECT_NEAR(rank_one / static_cast<double>(n), 0.1928, 0.02);
}

TEST(RngTest, ZipfStaysInSupport) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Zipf(10, 0.3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, ZipfSkewZeroIsUniform) {
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(10, 0.0) - 1)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.1, 0.01);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  const auto sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(ShardSeedTest, StreamsAreDistinctAndStable) {
  std::set<uint64_t> seeds;
  for (int64_t shard = 0; shard < 1000; ++shard) {
    EXPECT_TRUE(seeds.insert(ShardSeed(42, shard)).second);
    EXPECT_EQ(ShardSeed(42, shard), ShardSeed(42, shard));
  }
  EXPECT_NE(ShardSeed(1, 0), ShardSeed(2, 0));
}

}  // namespace
}  // namespace mqa

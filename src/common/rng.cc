#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace mqa {

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::GaussianInRange(double lo, double hi) {
  MQA_CHECK(lo <= hi) << "invalid range [" << lo << ", " << hi << "]";
  if (lo == hi) return lo;
  const double mean = 0.5 * (lo + hi);
  // One-sixth of the range puts [lo, hi] at +-3 sigma, so resampling
  // rejects ~0.3% of draws.
  const double stddev = (hi - lo) / 6.0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double v = Gaussian(mean, stddev);
    if (v >= lo && v <= hi) return v;
  }
  return mean;
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

int64_t Rng::Zipf(int64_t n, double skew) {
  MQA_CHECK(n >= 1) << "Zipf needs n >= 1";
  // Rejection-inversion sampling (Hormann & Derflinger) is overkill for the
  // sizes used here; inverse CDF over cumulative weights is exact and the
  // table is cached per (n, skew).
  if (n != zipf_n_ || skew != zipf_skew_) {
    zipf_cdf_.resize(static_cast<size_t>(n));
    double sum = 0.0;
    for (int64_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), skew);
      zipf_cdf_[static_cast<size_t>(k - 1)] = sum;
    }
    for (auto& v : zipf_cdf_) v /= sum;
    zipf_n_ = n;
    zipf_skew_ = skew;
  }
  const double u = Uniform();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<int64_t>(it - zipf_cdf_.begin()) + 1;
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  MQA_CHECK(k <= n) << "cannot sample " << k << " of " << n;
  std::vector<int64_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), engine_);
  all.resize(static_cast<size_t>(k));
  return all;
}

uint64_t ShardSeed(uint64_t seed, int64_t stream) {
  // SplitMix64 (Steele et al.) over the combined word: cheap, and any two
  // (seed, stream) inputs land in well-separated streams.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                          (static_cast<uint64_t>(stream) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace mqa

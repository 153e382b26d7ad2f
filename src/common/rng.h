#ifndef MQA_COMMON_RNG_H_
#define MQA_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace mqa {

/// Deterministic, seedable random number generator used everywhere in the
/// library. All experiments take an explicit seed so every benchmark and
/// test run is reproducible.
///
/// Not thread-safe; use one Rng per thread.
class Rng {
 public:
  /// Constructs a generator with the given seed.
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Gaussian with mean (lo+hi)/2 and stddev derived from the range,
  /// truncated (by resampling) to [lo, hi]. This matches the paper's
  /// "Gaussian distributions within [x-, x+]" generation for velocities,
  /// qualities, etc.
  double GaussianInRange(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [1, n] with the given skew (exponent).
  /// Uses inverse-CDF sampling on the precomputed harmonic weights when n
  /// is small, otherwise rejection sampling.
  int64_t Zipf(int64_t n, double skew);

  /// Returns k distinct indices sampled uniformly from [0, n).
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Underlying engine (for std::shuffle interop).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;

  // Cached inverse-CDF table for Zipf sampling, rebuilt when (n, skew)
  // changes.
  int64_t zipf_n_ = 0;
  double zipf_skew_ = 0.0;
  std::vector<double> zipf_cdf_;
};

/// Deterministic seed for stream `stream` of a generator seeded with
/// `seed` (SplitMix64 over seed + stream). Parallel randomized stages give
/// each chunk of work its own Rng(ShardSeed(seed, chunk)), so the draws
/// depend only on how the work is chunked, never on which thread runs a
/// chunk.
uint64_t ShardSeed(uint64_t seed, int64_t stream);

}  // namespace mqa

#endif  // MQA_COMMON_RNG_H_

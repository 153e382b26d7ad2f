#ifndef MQA_WORKLOAD_SPATIAL_DIST_H_
#define MQA_WORKLOAD_SPATIAL_DIST_H_

#include <string>

#include "common/rng.h"
#include "geo/point.h"

namespace mqa {

/// Location distributions used by the paper's synthetic experiments
/// (Section VI and Appendix D: Uniform "U", Gaussian "G", Zipf "Z").
enum class SpatialDistribution { kUniform, kGaussian, kZipf };

/// One-letter code used in the paper's Fig. 18/19 combo labels.
const char* SpatialDistributionCode(SpatialDistribution d);

/// Parameters of a location distribution over [0,1]^2.
struct SpatialDistConfig {
  SpatialDistribution kind = SpatialDistribution::kUniform;

  /// Gaussian: N((0.5, 0.5), sigma^2 I) truncated to the unit square by
  /// resampling. The paper states N(0.5, 1^2), which after truncation is
  /// nearly uniform; the default 0.25 keeps a visible central cluster
  /// (docs/DEVIATIONS.md, row D8).
  double gaussian_sigma = 0.25;

  /// Zipf: each axis is a Zipf-distributed bin index (skew below) over
  /// `zipf_bins` bins mapped to [0,1), plus uniform jitter inside the bin.
  /// Mass concentrates toward the origin corner. Paper skew: 0.3.
  double zipf_skew = 0.3;
  int zipf_bins = 100;
};

/// Draws one location according to `config`.
Point SampleLocation(const SpatialDistConfig& config, Rng* rng);

}  // namespace mqa

#endif  // MQA_WORKLOAD_SPATIAL_DIST_H_

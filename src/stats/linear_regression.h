#ifndef MQA_STATS_LINEAR_REGRESSION_H_
#define MQA_STATS_LINEAR_REGRESSION_H_

#include <cstdint>
#include <vector>

namespace mqa {

/// Ordinary least-squares fit of y = intercept + slope * x.
///
/// This is the paper's per-cell count predictor (Section III-A): the w
/// latest worker/task counts of a cell form a time series y_1..y_w at
/// x = 1..w, and the predicted next count is the fit evaluated at x = w+1.
class LinearRegression {
 public:
  /// Fits over explicit (x, y) pairs. Requires xs.size() == ys.size() >= 1.
  /// With a single sample (or zero x-variance) the fit degenerates to a
  /// constant: slope 0, intercept = mean(y).
  static LinearRegression Fit(const std::vector<double>& xs,
                              const std::vector<double>& ys);

  /// Fits over a time series y_1..y_k observed at x = 1..k, without
  /// materializing the x values. Bit-identical to Fit over xs = 1..k.
  static LinearRegression FitSeries(const std::vector<double>& ys);

  double slope() const { return slope_; }
  double intercept() const { return intercept_; }

  /// Value of the fitted line at x.
  double Predict(double x) const { return intercept_ + slope_ * x; }

  /// Convenience for FitSeries: prediction one step past the series end.
  /// `series_length` is the number of observations the fit was made over.
  double PredictNext(int64_t series_length) const {
    return Predict(static_cast<double>(series_length) + 1.0);
  }

 private:
  LinearRegression(double slope, double intercept)
      : slope_(slope), intercept_(intercept) {}

  // The one body of Fit and FitSeries: x_i is xs[i], or i + 1 when `xs`
  // is null.
  static LinearRegression FitOver(const double* xs,
                                  const std::vector<double>& ys);

  double slope_;
  double intercept_;
};

}  // namespace mqa

#endif  // MQA_STATS_LINEAR_REGRESSION_H_

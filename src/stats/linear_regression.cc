#include "stats/linear_regression.h"

#include "common/logging.h"

namespace mqa {

LinearRegression LinearRegression::Fit(const std::vector<double>& xs,
                                       const std::vector<double>& ys) {
  MQA_CHECK(xs.size() == ys.size()) << "x/y size mismatch";
  return FitOver(xs.data(), ys);
}

LinearRegression LinearRegression::FitSeries(const std::vector<double>& ys) {
  return FitOver(nullptr, ys);
}

LinearRegression LinearRegression::FitOver(const double* xs,
                                           const std::vector<double>& ys) {
  MQA_CHECK(!ys.empty()) << "cannot fit over zero samples";
  const auto x_at = [xs](size_t i) {
    return xs != nullptr ? xs[i] : static_cast<double>(i + 1);
  };

  const double n = static_cast<double>(ys.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < ys.size(); ++i) {
    mean_x += x_at(i);
    mean_y += ys[i];
  }
  mean_x /= n;
  mean_y /= n;

  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < ys.size(); ++i) {
    const double dx = x_at(i) - mean_x;
    sxx += dx * dx;
    sxy += dx * (ys[i] - mean_y);
  }

  if (sxx == 0.0) {
    // Single point or constant x: the best constant fit is mean(y).
    return LinearRegression(0.0, mean_y);
  }
  const double slope = sxy / sxx;
  return LinearRegression(slope, mean_y - slope * mean_x);
}

}  // namespace mqa

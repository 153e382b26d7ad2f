#ifndef MQA_PREDICTION_COUNT_PREDICTOR_H_
#define MQA_PREDICTION_COUNT_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace mqa {

/// Predicts the next count of a cell from its sliding-window series.
/// The paper uses linear regression (Section III-A) and notes that "other
/// prediction methods can also be plugged into our grid-based prediction
/// framework" — this interface is that plug point.
class CountPredictor {
 public:
  virtual ~CountPredictor() = default;

  /// Predicted count for the instance following `series` (oldest first).
  /// Implementations must return a non-negative integer; an empty series
  /// and a series of zeros (of any length) predict 0. GridPredictor relies
  /// on the latter: it gives a cell whose window is all zeros the count 0
  /// without calling PredictNext, which keeps a step's cost with the cells
  /// that saw arrivals. All three built-ins satisfy it.
  virtual int64_t PredictNext(const std::vector<double>& series) const = 0;
};

/// The paper's predictor: least-squares line over the window, evaluated
/// one step past the end, rounded to the nearest non-negative integer.
/// A window of size 1 degenerates to last-value carry-forward.
std::unique_ptr<CountPredictor> MakeLinearRegressionPredictor();

/// Baseline predictor: repeats the most recent count.
std::unique_ptr<CountPredictor> MakeLastValuePredictor();

/// Baseline predictor: arithmetic mean of the window, rounded.
std::unique_ptr<CountPredictor> MakeMovingAveragePredictor();

}  // namespace mqa

#endif  // MQA_PREDICTION_COUNT_PREDICTOR_H_

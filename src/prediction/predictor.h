#ifndef MQA_PREDICTION_PREDICTOR_H_
#define MQA_PREDICTION_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "model/task.h"
#include "model/types.h"
#include "model/worker.h"
#include "prediction/count_history.h"
#include "prediction/count_predictor.h"
#include "prediction/grid.h"
#include "stats/running_stats.h"

namespace mqa {

/// Which per-cell count predictor the grid predictor uses. The paper's
/// method is linear regression (Section III-A); the alternatives are the
/// plug-in baselines it alludes to ("other prediction methods can also be
/// plugged into our grid-based prediction framework").
enum class CountPredictorKind {
  kLinearRegression,
  kLastValue,
  kMovingAverage,
};

/// Creates the chosen predictor.
std::unique_ptr<CountPredictor> MakeCountPredictor(CountPredictorKind kind);

/// Configuration of the grid-based prediction approach (paper Section III).
struct PredictionConfig {
  /// Cells per grid side; the paper's experiments use 400 cells (gamma=20).
  int gamma = 20;

  /// Sliding-window size w over past instances (Table IV; default 3).
  int window = 3;

  /// Seed for predicted sample generation.
  uint64_t seed = 42;

  /// Per-cell count predictor (paper: linear regression).
  CountPredictorKind predictor = CountPredictorKind::kLinearRegression;
};

/// Predicted arrivals for the next time instance.
struct Prediction {
  /// Predicted workers ŵ (predicted=true, kernel-box locations).
  std::vector<Worker> workers;

  /// Predicted tasks t̂.
  std::vector<Task> tasks;

  /// Per-cell predicted counts |W^(i)_{p+1}| and |T^(i)_{p+1}| — kept for
  /// prediction-accuracy evaluation (paper Fig. 10).
  std::vector<int64_t> worker_cell_counts;
  std::vector<int64_t> task_cell_counts;
};

/// The grid-based worker/task prediction approach (paper Section III-A,
/// procedure MQA_Prediction):
///   1. per cell, keep the w latest arrival counts;
///   2. predict the next count by linear regression over the window;
///   3. generate that many samples uniformly in the cell (with
///      replacement);
///   4. attach to each sample a uniform-kernel box with bandwidth
///      h_r = sigma_hat * 1.8431 * n^(-1/5) (per-cell, per-axis).
/// Velocities of predicted workers and deadlines of predicted tasks are
/// sampled from the empirical range observed so far (the platform's
/// historical knowledge).
///
/// A step costs one O(cells) pass over the histories' window sums, a fit
/// only for each window that is not all zeros (an all-zero window predicts
/// 0 by the CountPredictor contract, so it is never fitted), then steps 3
/// and 4 for each cell with a non-zero forecast, whose bandwidth estimate
/// scans all the latest arrivals. The fits share one series buffer:
/// PredictNext allocates nothing per cell.
class GridPredictor {
 public:
  explicit GridPredictor(const PredictionConfig& config,
                         std::unique_ptr<CountPredictor> predictor =
                             MakeLinearRegressionPredictor());

  /// Records the *new arrivals* of the current instance. Call exactly once
  /// per time instance, before PredictNext.
  void Observe(const std::vector<Worker>& new_workers,
               const std::vector<Task>& new_tasks);

  /// Per-cell counts of the arrivals the last Observe recorded (empty
  /// before the first) — what the previous step's prediction is scored
  /// against.
  const std::vector<int64_t>& last_worker_counts() const {
    return last_worker_counts_;
  }
  const std::vector<int64_t>& last_task_counts() const {
    return last_task_counts_;
  }

  /// Predicts the arrivals of the next instance from the sliding windows.
  /// Returns empty predictions when nothing has been observed yet.
  Prediction PredictNext();

  const Grid& grid() const { return grid_; }
  int window() const { return config_.window; }

  /// Mean per-cell relative error |est-act| / max(act, 1), averaged over
  /// all cells (the paper's Fig. 10 measure; max(act,1) keeps empty cells
  /// finite while preserving magnitudes).
  static double AverageRelativeError(const std::vector<int64_t>& estimated,
                                     const std::vector<int64_t>& actual);

 private:
  // The forecast count of `cell` from `history`: 0 for an all-zero
  // window, else the count predictor over the window's series.
  int64_t PredictCount(const CountHistory& history, int cell);

  // Generates `count` predicted samples in `cell`, pushing kernel boxes
  // into `boxes`. `recent` holds the most recent arrivals' locations used
  // for the per-cell bandwidth sigma_hat.
  void GenerateSamples(int cell, int64_t count,
                       const std::vector<Point>& recent,
                       std::vector<BBox>* boxes);

  PredictionConfig config_;
  Grid grid_;
  std::unique_ptr<CountPredictor> predictor_;
  CountHistory worker_history_;
  CountHistory task_history_;
  Rng rng_;

  // Most recent instance's arrival locations (for bandwidth estimation)
  // and their per-cell counts.
  std::vector<Point> recent_worker_points_;
  std::vector<Point> recent_task_points_;
  std::vector<int64_t> last_worker_counts_;
  std::vector<int64_t> last_task_counts_;

  // Buffer PredictCount reads a window's series into.
  std::vector<double> series_;

  // Empirical attribute ranges observed so far.
  RunningStats velocity_stats_;
  RunningStats deadline_stats_;

  // Monotonically decreasing ids for predicted entities (negative so they
  // never collide with real ids).
  int64_t next_predicted_id_ = -1;
};

}  // namespace mqa

#endif  // MQA_PREDICTION_PREDICTOR_H_

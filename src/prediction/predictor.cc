#include "prediction/predictor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "stats/kde.h"

namespace mqa {

std::unique_ptr<CountPredictor> MakeCountPredictor(CountPredictorKind kind) {
  switch (kind) {
    case CountPredictorKind::kLinearRegression:
      return MakeLinearRegressionPredictor();
    case CountPredictorKind::kLastValue:
      return MakeLastValuePredictor();
    case CountPredictorKind::kMovingAverage:
      return MakeMovingAveragePredictor();
  }
  return MakeLinearRegressionPredictor();
}

GridPredictor::GridPredictor(const PredictionConfig& config,
                             std::unique_ptr<CountPredictor> predictor)
    : config_(config),
      grid_(config.gamma),
      predictor_(std::move(predictor)),
      worker_history_(grid_.num_cells(), config.window),
      task_history_(grid_.num_cells(), config.window),
      rng_(config.seed) {
  MQA_CHECK(predictor_ != nullptr) << "count predictor required";
}

void GridPredictor::Observe(const std::vector<Worker>& new_workers,
                            const std::vector<Task>& new_tasks) {
  recent_worker_points_.clear();
  recent_task_points_.clear();
  for (const Worker& w : new_workers) {
    recent_worker_points_.push_back(w.Center());
    velocity_stats_.Add(w.velocity);
  }
  for (const Task& t : new_tasks) {
    recent_task_points_.push_back(t.Center());
    deadline_stats_.Add(t.deadline);
  }
  last_worker_counts_ = grid_.Histogram(recent_worker_points_);
  last_task_counts_ = grid_.Histogram(recent_task_points_);
  worker_history_.Push(last_worker_counts_);
  task_history_.Push(last_task_counts_);
}

int64_t GridPredictor::PredictCount(const CountHistory& history, int cell) {
  if (history.WindowIsZero(cell)) return 0;
  history.Series(cell, &series_);
  return predictor_->PredictNext(series_);
}

void GridPredictor::GenerateSamples(int cell, int64_t count,
                                    const std::vector<Point>& recent,
                                    std::vector<BBox>* boxes) {
  if (count <= 0) return;
  const BBox cell_box = grid_.CellBox(cell);

  // Per-axis stddev of the latest arrivals inside this cell; when the cell
  // held fewer than 2 recent points, fall back to the stddev of a uniform
  // distribution over the cell (side / sqrt(12)).
  RunningStats sx;
  RunningStats sy;
  for (const Point& p : recent) {
    if (cell_box.Contains(p)) {
      sx.Add(p.x);
      sy.Add(p.y);
    }
  }
  const double fallback = grid_.cell_side() / std::sqrt(12.0);
  const double hx = UniformKernelBandwidth(
      sx.count() >= 2 ? sx.stddev() : 0.0, count, fallback);
  const double hy = UniformKernelBandwidth(
      sy.count() >= 2 ? sy.stddev() : 0.0, count, fallback);

  for (int64_t k = 0; k < count; ++k) {
    // Sampling with replacement, uniform within the cell (paper Ex. 3).
    const Point center{rng_.Uniform(cell_box.lo().x, cell_box.hi().x),
                       rng_.Uniform(cell_box.lo().y, cell_box.hi().y)};
    boxes->push_back(BBox::KernelBox(center, hx, hy));
  }
}

Prediction GridPredictor::PredictNext() {
  Prediction out;
  out.worker_cell_counts.assign(static_cast<size_t>(grid_.num_cells()), 0);
  out.task_cell_counts.assign(static_cast<size_t>(grid_.num_cells()), 0);
  if (worker_history_.size() == 0) return out;

  std::vector<BBox> worker_boxes;
  std::vector<BBox> task_boxes;
  for (int cell = 0; cell < grid_.num_cells(); ++cell) {
    const int64_t w_count = PredictCount(worker_history_, cell);
    const int64_t t_count = PredictCount(task_history_, cell);
    out.worker_cell_counts[static_cast<size_t>(cell)] = w_count;
    out.task_cell_counts[static_cast<size_t>(cell)] = t_count;
    GenerateSamples(cell, w_count, recent_worker_points_, &worker_boxes);
    GenerateSamples(cell, t_count, recent_task_points_, &task_boxes);
  }

  // Attribute ranges learned from history; degenerate stats (no
  // observations) produce mid-range defaults via GaussianInRange.
  const double v_lo = velocity_stats_.count() > 0 ? velocity_stats_.min() : 0.0;
  const double v_hi = velocity_stats_.count() > 0 ? velocity_stats_.max() : 0.0;
  const double e_lo = deadline_stats_.count() > 0 ? deadline_stats_.min() : 0.0;
  const double e_hi = deadline_stats_.count() > 0 ? deadline_stats_.max() : 0.0;

  out.workers.reserve(worker_boxes.size());
  for (const BBox& box : worker_boxes) {
    Worker w;
    w.id = next_predicted_id_--;
    w.location = box;
    w.velocity = rng_.GaussianInRange(v_lo, v_hi);
    w.predicted = true;
    out.workers.push_back(w);
  }
  out.tasks.reserve(task_boxes.size());
  for (const BBox& box : task_boxes) {
    Task t;
    t.id = next_predicted_id_--;
    t.location = box;
    t.deadline = rng_.GaussianInRange(e_lo, e_hi);
    t.predicted = true;
    out.tasks.push_back(t);
  }
  return out;
}

double GridPredictor::AverageRelativeError(
    const std::vector<int64_t>& estimated, const std::vector<int64_t>& actual) {
  MQA_CHECK(estimated.size() == actual.size()) << "cell count mismatch";
  if (estimated.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < estimated.size(); ++i) {
    const double act = static_cast<double>(actual[i]);
    const double est = static_cast<double>(estimated[i]);
    sum += std::abs(est - act) / std::max(act, 1.0);
  }
  return sum / static_cast<double>(estimated.size());
}

}  // namespace mqa

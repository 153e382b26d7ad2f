#ifndef MQA_TESTS_PREDICTOR_REFERENCE_H_
#define MQA_TESTS_PREDICTOR_REFERENCE_H_

// The grid predictor that fits every cell's window, kept as the reference
// the production GridPredictor (prediction/predictor.h) must reproduce bit
// for bit: CountHistory with one std::deque window per cell, the
// linear-regression fit that materializes its x vector, and
// GridPredictor's Observe, PredictNext and GenerateSamples. It is the
// former production code apart from names and the history accessors.
// Header-only because each test binary links only itself and the mqa
// library.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "model/task.h"
#include "model/worker.h"
#include "prediction/count_predictor.h"
#include "prediction/grid.h"
#include "prediction/predictor.h"
#include "stats/kde.h"
#include "stats/running_stats.h"

namespace mqa {
namespace testing_util {

/// Per-cell sliding windows, one deque per cell.
class ReferenceCountHistory {
 public:
  ReferenceCountHistory(int num_cells, int window)
      : num_cells_(num_cells), window_(window),
        windows_(static_cast<size_t>(num_cells)) {
    MQA_CHECK(num_cells >= 1) << "need at least one cell";
    MQA_CHECK(window >= 1) << "window must be positive";
  }

  void Push(const std::vector<int64_t>& counts) {
    MQA_CHECK(counts.size() == static_cast<size_t>(num_cells_))
        << "count vector size mismatch";
    for (int c = 0; c < num_cells_; ++c) {
      auto& win = windows_[static_cast<size_t>(c)];
      win.push_back(counts[static_cast<size_t>(c)]);
      if (static_cast<int>(win.size()) > window_) win.pop_front();
    }
    filled_ = std::min<int64_t>(filled_ + 1, window_);
  }

  int size() const { return static_cast<int>(filled_); }

  std::vector<double> Series(int cell) const {
    MQA_CHECK(cell >= 0 && cell < num_cells_) << "cell out of range";
    const auto& win = windows_[static_cast<size_t>(cell)];
    return std::vector<double>(win.begin(), win.end());
  }

 private:
  int num_cells_;
  int window_;
  int64_t filled_ = 0;
  std::vector<std::deque<int64_t>> windows_;
};

/// Least-squares line through (xs[i], ys[i]).
struct ReferenceLinearFit {
  double slope;
  double intercept;
};

inline ReferenceLinearFit ReferenceFit(const std::vector<double>& xs,
                                       const std::vector<double>& ys) {
  MQA_CHECK(xs.size() == ys.size()) << "x/y size mismatch";
  MQA_CHECK(!xs.empty()) << "cannot fit over zero samples";

  const double n = static_cast<double>(xs.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mean_x += xs[i];
    mean_y += ys[i];
  }
  mean_x /= n;
  mean_y /= n;

  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mean_x;
    sxx += dx * dx;
    sxy += dx * (ys[i] - mean_y);
  }

  if (sxx == 0.0) {
    return {0.0, mean_y};
  }
  const double slope = sxy / sxx;
  return {slope, mean_y - slope * mean_x};
}

inline ReferenceLinearFit ReferenceFitSeries(const std::vector<double>& ys) {
  std::vector<double> xs(ys.size());
  for (size_t i = 0; i < ys.size(); ++i) xs[i] = static_cast<double>(i + 1);
  return ReferenceFit(xs, ys);
}

/// The linear-regression count predictor over ReferenceFitSeries.
class ReferenceLinearRegressionPredictor : public CountPredictor {
 public:
  int64_t PredictNext(const std::vector<double>& series) const override {
    if (series.empty()) return 0;
    const ReferenceLinearFit fit = ReferenceFitSeries(series);
    const double next =
        fit.intercept +
        fit.slope * (static_cast<double>(static_cast<int64_t>(series.size())) +
                     1.0);
    return std::max<int64_t>(0, static_cast<int64_t>(std::llround(next)));
  }
};

/// The reference's count predictor of `kind`: the linear regression above,
/// or the production last-value and moving-average predictors.
inline std::unique_ptr<CountPredictor> MakeReferenceCountPredictor(
    CountPredictorKind kind) {
  if (kind == CountPredictorKind::kLinearRegression) {
    return std::make_unique<ReferenceLinearRegressionPredictor>();
  }
  return MakeCountPredictor(kind);
}

/// GridPredictor fitting every cell's window, every step.
class ReferenceGridPredictor {
 public:
  ReferenceGridPredictor(const PredictionConfig& config,
                         std::unique_ptr<CountPredictor> predictor)
      : config_(config),
        grid_(config.gamma),
        predictor_(std::move(predictor)),
        worker_history_(grid_.num_cells(), config.window),
        task_history_(grid_.num_cells(), config.window),
        rng_(config.seed) {
    MQA_CHECK(predictor_ != nullptr) << "count predictor required";
  }

  void Observe(const std::vector<Worker>& new_workers,
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
    worker_history_.Push(grid_.Histogram(recent_worker_points_));
    task_history_.Push(grid_.Histogram(recent_task_points_));
  }

  Prediction PredictNext() {
    Prediction out;
    out.worker_cell_counts.assign(static_cast<size_t>(grid_.num_cells()), 0);
    out.task_cell_counts.assign(static_cast<size_t>(grid_.num_cells()), 0);
    if (worker_history_.size() == 0) return out;

    std::vector<BBox> worker_boxes;
    std::vector<BBox> task_boxes;
    for (int cell = 0; cell < grid_.num_cells(); ++cell) {
      const int64_t w_count =
          predictor_->PredictNext(worker_history_.Series(cell));
      const int64_t t_count =
          predictor_->PredictNext(task_history_.Series(cell));
      out.worker_cell_counts[static_cast<size_t>(cell)] = w_count;
      out.task_cell_counts[static_cast<size_t>(cell)] = t_count;
      GenerateSamples(cell, w_count, recent_worker_points_, &worker_boxes);
      GenerateSamples(cell, t_count, recent_task_points_, &task_boxes);
    }

    const double v_lo =
        velocity_stats_.count() > 0 ? velocity_stats_.min() : 0.0;
    const double v_hi =
        velocity_stats_.count() > 0 ? velocity_stats_.max() : 0.0;
    const double e_lo =
        deadline_stats_.count() > 0 ? deadline_stats_.min() : 0.0;
    const double e_hi =
        deadline_stats_.count() > 0 ? deadline_stats_.max() : 0.0;

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

  const ReferenceCountHistory& worker_history() const {
    return worker_history_;
  }
  const ReferenceCountHistory& task_history() const { return task_history_; }

 private:
  void GenerateSamples(int cell, int64_t count,
                       const std::vector<Point>& recent,
                       std::vector<BBox>* boxes) {
    if (count <= 0) return;
    const BBox cell_box = grid_.CellBox(cell);

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
      const Point center{rng_.Uniform(cell_box.lo().x, cell_box.hi().x),
                         rng_.Uniform(cell_box.lo().y, cell_box.hi().y)};
      boxes->push_back(BBox::KernelBox(center, hx, hy));
    }
  }

  PredictionConfig config_;
  Grid grid_;
  std::unique_ptr<CountPredictor> predictor_;
  ReferenceCountHistory worker_history_;
  ReferenceCountHistory task_history_;
  Rng rng_;

  std::vector<Point> recent_worker_points_;
  std::vector<Point> recent_task_points_;

  RunningStats velocity_stats_;
  RunningStats deadline_stats_;

  int64_t next_predicted_id_ = -1;
};

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_PREDICTOR_REFERENCE_H_

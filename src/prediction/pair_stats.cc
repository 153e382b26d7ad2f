#include "prediction/pair_stats.h"

#include <algorithm>

#include "common/logging.h"

namespace mqa {

PairStatistics::PairStatistics(size_t num_current_workers,
                               size_t num_current_tasks,
                               const int32_t* worker_col,
                               const int32_t* task_col,
                               const double* fixed_quality_col,
                               size_t num_pairs)
    : num_current_workers_(num_current_workers),
      num_current_tasks_(num_current_tasks),
      per_task_(num_current_tasks),
      per_worker_(num_current_workers) {
  for (size_t k = 0; k < num_pairs; ++k) {
    const size_t i = static_cast<size_t>(worker_col[k]);
    const size_t j = static_cast<size_t>(task_col[k]);
    if (i >= num_current_workers_ || j >= num_current_tasks_) continue;
    const double q = fixed_quality_col[k];
    per_task_[j].Add(q);
    per_worker_[i].Add(q);
    global_.Add(q);
    ++num_valid_pairs_;
  }
}

Uncertain PairStatistics::FromStats(const RunningStats& s) {
  if (s.count() == 0) return Uncertain::Fixed(0.0);
  return Uncertain(s.mean(), s.variance(), s.min(), s.max());
}

Uncertain PairStatistics::QualityCase1(int32_t task_index) const {
  // Per-materialized-pair hot path: bounds-checked only in debug builds.
  MQA_DCHECK(task_index >= 0 &&
             static_cast<size_t>(task_index) < num_current_tasks_)
      << "Case 1 requires a current task";
  return FromStats(per_task_[static_cast<size_t>(task_index)]);
}

Uncertain PairStatistics::QualityCase2(int32_t worker_index) const {
  MQA_DCHECK(worker_index >= 0 &&
             static_cast<size_t>(worker_index) < num_current_workers_)
      << "Case 2 requires a current worker";
  return FromStats(per_worker_[static_cast<size_t>(worker_index)]);
}

Uncertain PairStatistics::QualityCase3() const { return FromStats(global_); }

double PairStatistics::ExistenceCase1(int32_t task_index) const {
  if (num_current_workers_ == 0) return 0.0;
  const double n_j = static_cast<double>(
      per_task_[static_cast<size_t>(task_index)].count());
  return std::min(n_j / static_cast<double>(num_current_workers_), 1.0);
}

double PairStatistics::ExistenceCase2(int32_t worker_index) const {
  if (num_current_tasks_ == 0) return 0.0;
  const double m_i = static_cast<double>(
      per_worker_[static_cast<size_t>(worker_index)].count());
  return std::min(m_i / static_cast<double>(num_current_tasks_), 1.0);
}

double PairStatistics::ExistenceCase3() const {
  if (num_current_workers_ == 0 || num_current_tasks_ == 0) return 0.0;
  return static_cast<double>(num_valid_pairs_) /
         (static_cast<double>(num_current_workers_) *
          static_cast<double>(num_current_tasks_));
}

}  // namespace mqa

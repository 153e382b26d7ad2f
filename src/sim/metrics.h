#ifndef MQA_SIM_METRICS_H_
#define MQA_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "obs/run_report.h"  // InstanceMetrics

namespace mqa {

/// Whole-run aggregates.
struct SimulationSummary {
  std::vector<InstanceMetrics> per_instance;

  double total_quality = 0.0;
  double total_cost = 0.0;
  int64_t total_assigned = 0;

  /// Mean per-instance wall-clock seconds (prediction + assignment).
  double avg_cpu_seconds = 0.0;

  /// Mean Fig. 10 prediction errors over instances that had predictions.
  double avg_worker_prediction_error = 0.0;
  double avg_task_prediction_error = 0.0;

  /// Recomputes the aggregate fields from per_instance.
  void Finalize();
};

}  // namespace mqa

#endif  // MQA_SIM_METRICS_H_

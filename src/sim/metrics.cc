#include "sim/metrics.h"

namespace mqa {

void SimulationSummary::Finalize() {
  total_quality = 0.0;
  total_cost = 0.0;
  total_assigned = 0;
  avg_cpu_seconds = 0.0;
  avg_worker_prediction_error = 0.0;
  avg_task_prediction_error = 0.0;

  int64_t with_prediction = 0;
  for (const InstanceMetrics& m : per_instance) {
    total_quality += m.quality;
    total_cost += m.cost;
    total_assigned += m.assigned;
    avg_cpu_seconds += m.cpu_seconds;
    if (m.worker_prediction_error >= 0.0) {
      avg_worker_prediction_error += m.worker_prediction_error;
      avg_task_prediction_error += m.task_prediction_error;
      ++with_prediction;
    }
  }
  if (!per_instance.empty()) {
    avg_cpu_seconds /= static_cast<double>(per_instance.size());
  }
  if (with_prediction > 0) {
    avg_worker_prediction_error /= static_cast<double>(with_prediction);
    avg_task_prediction_error /= static_cast<double>(with_prediction);
  }
}

}  // namespace mqa

#include "sim/metrics.h"

namespace mqa {

EpochReportRow ToEpochReportRow(const InstanceMetrics& m) {
  EpochReportRow row;
  row.instance = m.instance;
  row.assigned = m.assigned;
  row.quality = m.quality;
  row.cost = m.cost;
  row.assignment_checksum = m.assignment_checksum;
  row.wall_seconds = m.cpu_seconds;
  row.predict_seconds = m.predict_seconds;
  row.assemble_seconds = m.assemble_seconds;
  row.index_seconds = m.index_seconds;
  row.assign_seconds = m.assign_seconds;
  row.validate_seconds = m.validate_seconds;
  row.apply_seconds = m.apply_seconds;
  row.ingest_seconds = m.ingest_seconds;
  row.backlog_scan_seconds = m.backlog_scan_seconds;
  return row;
}

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

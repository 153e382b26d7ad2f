#ifndef MQA_SIM_ARRIVAL_STREAM_H_
#define MQA_SIM_ARRIVAL_STREAM_H_

#include <vector>

#include "common/status.h"
#include "model/task.h"
#include "model/worker.h"

namespace mqa {

/// Per-entity shape checks shared by every ingestion path (batch arrival
/// streams, the streaming EventQueue, scenario generators): non-finite
/// coordinates or deadlines and negative velocities would silently
/// corrupt spatial-index bucketing (NaN compares false against every
/// cell bound), and a negative deadline fails ProblemInstance::Validate,
/// so malformed inputs must fail fast instead. A deadline of 0 is valid.
Status ValidateWorkerShape(const Worker& worker);
Status ValidateTaskShape(const Task& task);

/// Per-instance arrival batches driving a simulation: workers[p] and
/// tasks[p] are the entities that newly join the system at instance p.
/// Generated by the workload module (synthetic Table-IV generator or the
/// check-in substitute) or assembled by hand in tests.
struct ArrivalStream {
  std::vector<std::vector<Worker>> workers;
  std::vector<std::vector<Task>> tasks;

  int num_instances() const { return static_cast<int>(workers.size()); }

  /// Checks shape invariants: equally many worker and task batches,
  /// every entity stamped with its batch index and non-predicted, and
  /// every entity passing the shape checks above.
  Status Validate() const;
};

}  // namespace mqa

#endif  // MQA_SIM_ARRIVAL_STREAM_H_

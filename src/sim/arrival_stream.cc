#include "sim/arrival_stream.h"

#include <cmath>

namespace mqa {

namespace {

bool FiniteBox(const BBox& box) {
  return std::isfinite(box.lo().x) && std::isfinite(box.lo().y) &&
         std::isfinite(box.hi().x) && std::isfinite(box.hi().y);
}

}  // namespace

Status ValidateWorkerShape(const Worker& worker) {
  if (!FiniteBox(worker.location)) {
    return Status::InvalidArgument("worker location is not finite");
  }
  if (!std::isfinite(worker.velocity) || worker.velocity < 0.0) {
    return Status::InvalidArgument("worker velocity is negative or not finite");
  }
  return Status::OK();
}

Status ValidateTaskShape(const Task& task) {
  if (!FiniteBox(task.location)) {
    return Status::InvalidArgument("task location is not finite");
  }
  if (!std::isfinite(task.deadline) || task.deadline < 0.0) {
    return Status::InvalidArgument("task deadline is negative or not finite");
  }
  return Status::OK();
}

Status ArrivalStream::Validate() const {
  if (workers.size() != tasks.size()) {
    return Status::InvalidArgument(
        "worker and task batch counts differ");
  }
  for (size_t p = 0; p < workers.size(); ++p) {
    for (const Worker& w : workers[p]) {
      if (w.predicted) {
        return Status::InvalidArgument("arrival stream holds predicted worker");
      }
      if (w.arrival != static_cast<Timestamp>(p)) {
        return Status::InvalidArgument("worker arrival stamp mismatch");
      }
      // Malformed attributes would corrupt index bucketing (NaN compares
      // false everywhere, so entities vanish from grid cells) — fail fast.
      auto status = ValidateWorkerShape(w);
      if (!status.ok()) return status;
    }
    for (const Task& t : tasks[p]) {
      if (t.predicted) {
        return Status::InvalidArgument("arrival stream holds predicted task");
      }
      if (t.arrival != static_cast<Timestamp>(p)) {
        return Status::InvalidArgument("task arrival stamp mismatch");
      }
      auto status = ValidateTaskShape(t);
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

}  // namespace mqa

#include "layer_probe.h"

#include <algorithm>

#include "core/pair_pool.h"
#include "model/assignment.h"

namespace pbsc {

using namespace mqa;

LayerProbe::LayerProbe(Assigner* inner, const PredictionConfig& prediction,
                       SpanRecorder* spans, bool batch_clock)
    : inner_(inner),
      spans_(spans),
      batch_clock_(batch_clock),
      predictor_(prediction, MakeCountPredictor(prediction.predictor)) {}

Result<AssignmentResult> LayerProbe::Assign(const ProblemInstance& instance) {
  ScopedSpan hook(spans_, "bench.epoch_hook");
  const size_t num_workers = instance.num_current_workers();
  const size_t num_tasks = instance.num_current_tasks();
  const std::vector<Worker>& workers = instance.workers();
  const std::vector<Task>& tasks = instance.tasks();

  {
    // This epoch's arrivals are the current entities never seen before
    // (workers do not rejoin in these workloads).
    ScopedSpan span(spans_, "prediction.step");
    std::vector<Worker> new_workers;
    std::vector<Task> new_tasks;
    for (size_t i = 0; i < num_workers; ++i) {
      if (seen_workers_.insert(workers[i].id).second) {
        new_workers.push_back(workers[i]);
      }
    }
    for (size_t j = 0; j < num_tasks; ++j) {
      if (seen_tasks_.insert(tasks[j].id).second) new_tasks.push_back(tasks[j]);
    }
    predictor_.Observe(new_workers, new_tasks);
    predictor_.PredictNext();
  }

  {
    ScopedSpan span(spans_, "index.sync");
    task_index_.BeginInstance(tasks);
  }
  counters_.index_inserted += task_index_.last_churn().inserted;
  counters_.index_erased += task_index_.last_churn().erased;

  {
    ScopedSpan span(spans_, "stream.coverable_scan");
    worker_index_.BeginInstance(workers);
    const double velocity_cap = MaxWorkerVelocity(workers);
    for (size_t j = 0; j < num_tasks; ++j) {
      bool covered = false;
      worker_index_.view()->QueryReachable(
          tasks[j].location, std::max(tasks[j].deadline, 0.0), velocity_cap,
          [&](int64_t id, const BBox&, double) {
            if (static_cast<size_t>(id) < num_workers) covered = true;
          });
      if (covered) ++counters_.coverable_sum;
    }
  }
  counters_.backlog_sum += static_cast<int64_t>(num_tasks);
  counters_.backlog_max =
      std::max(counters_.backlog_max, static_cast<int64_t>(num_tasks));

  const int assign_span = spans_->Begin("core.assign");
  Result<AssignmentResult> result = inner_->Assign(instance);
  spans_->End(assign_span);
  // The simulator wires ProblemInstance::pool_stats; the assigner's pool
  // fills it with its own build time when the assigner drops the pool.
  if (instance.pool_stats() != nullptr) {
    spans_->AddTimedChild("core.pool.build", assign_span,
                          instance.pool_stats()->build_seconds);
  }
  if (!result.ok()) return result;

  {
    ScopedSpan span(spans_, "model.validate");
    const Status status = ValidateAssignment(instance, result.value());
    if (!status.ok()) return status;
  }

  if (batch_clock_) {
    for (const Assignment& a : result.value().pairs) {
      counters_.batch_waits.push_back(static_cast<double>(
          counters_.epochs - tasks[static_cast<size_t>(a.task_index)].arrival));
    }
  }
  ++counters_.epochs;
  return result;
}

}  // namespace pbsc

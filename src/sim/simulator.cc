#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"
#include "obs/run_report.h"
#include "sim/epoch_runner.h"

namespace mqa {

Simulator::Simulator(const SimulatorConfig& config, const QualityModel* quality)
    : config_(config), quality_(quality) {
  MQA_CHECK(quality != nullptr) << "quality model required";
}

Result<SimulationSummary> Simulator::Run(const ArrivalStream& stream,
                                         Assigner* assigner) {
  MQA_RETURN_NOT_OK(stream.Validate());
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner required");
  }
  const int num_instances = stream.num_instances();

  EpochRunner runner(config_, quality_);
  SimulationSummary summary;

  std::vector<Worker> available_workers;
  std::vector<Task> available_tasks;
  // Workers traveling to tasks, keyed by the instance at which they rejoin.
  std::vector<std::vector<Worker>> rejoin_queue(
      static_cast<size_t>(num_instances) + 1);

  for (int p = 0; p < num_instances; ++p) {
    // --- Retrieve available workers/tasks (Fig. 3 lines 2-3). ---
    // New arrivals: the stream batch plus workers rejoining after
    // finishing earlier tasks (both count as "new" for prediction).
    std::vector<Worker> new_workers = stream.workers[static_cast<size_t>(p)];
    for (Worker& w : rejoin_queue[static_cast<size_t>(p)]) {
      w.arrival = p;
      new_workers.push_back(std::move(w));
    }
    rejoin_queue[static_cast<size_t>(p)].clear();
    const std::vector<Task>& new_tasks = stream.tasks[static_cast<size_t>(p)];

    available_workers.insert(available_workers.end(), new_workers.begin(),
                             new_workers.end());
    available_tasks.insert(available_tasks.end(), new_tasks.begin(),
                           new_tasks.end());

    // --- Predict + assign (lines 4-5), shared with the streaming engine. ---
    EpochOutcome outcome;
    MQA_ASSIGN_OR_RETURN(
        outcome, runner.RunEpoch(p, new_workers, new_tasks, available_workers,
                                 available_tasks,
                                 /*predict_next=*/p + 1 < num_instances,
                                 assigner));

    // --- Apply the assignment (lines 6-7). ---
    for (EpochOutcome::Rejoin& rejoin : outcome.rejoins) {
      const int64_t rejoin_at = p + rejoin.offset;
      if (rejoin_at < num_instances) {
        rejoin_queue[static_cast<size_t>(rejoin_at)].push_back(
            std::move(rejoin.worker));
      }
    }

    // Carry over unassigned workers and still-feasible unassigned tasks.
    std::vector<Worker> carried_workers;
    carried_workers.reserve(available_workers.size());
    for (size_t i = 0; i < available_workers.size(); ++i) {
      if (!outcome.worker_assigned[i]) {
        carried_workers.push_back(available_workers[i]);
      }
    }
    std::vector<Task> carried_tasks;
    carried_tasks.reserve(available_tasks.size());
    for (size_t j = 0; j < available_tasks.size(); ++j) {
      if (outcome.task_assigned[j]) continue;
      Task t = available_tasks[j];
      t.deadline -= kInstanceDuration;
      if (t.deadline > 0.0) carried_tasks.push_back(t);
    }
    available_workers = std::move(carried_workers);
    available_tasks = std::move(carried_tasks);

    RunReport::Get().RecordEpoch(outcome.metrics);
    summary.per_instance.push_back(outcome.metrics);
  }

  summary.Finalize();
  return summary;
}

}  // namespace mqa

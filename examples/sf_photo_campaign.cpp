// A photo-collection campaign over a synthetic San-Francisco-like
// check-in stream (a stand-in for the paper's Gowalla/Foursquare data,
// docs/DEVIATIONS.md row D7): venues cluster around downtown hotspots, task
// demand drifts over the day, and the platform assigns photographers to
// photo tasks every time instance under a per-instance reward budget.
//
// Demonstrates the full pipeline — workload generation, grid-based
// prediction, greedy/D&C assignment, per-instance reporting — through the
// public Simulator API.

#include <cstdio>
#include <memory>

#include "core/assigner.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "workload/checkin.h"

int main() {
  using namespace mqa;

  // Scaled-down SF scenario (paper scale: 6,143 workers / 8,481 tasks /
  // R=15; scaled ~1/4 here to keep the example snappy).
  CheckinConfig workload;
  workload.num_workers = 1500;
  workload.num_tasks = 2100;
  workload.num_instances = 12;
  workload.seed = 2017;
  const ArrivalStream stream = GenerateCheckin(workload);

  // Photo quality of a worker-task pair (paper Table IV default [1,2]).
  const RangeQualityModel quality(1.0, 2.0, /*seed=*/2017);

  SimulatorConfig config;
  config.budget = 120.0;     // reward budget per instance
  config.unit_price = 10.0;  // $ per unit distance
  config.prediction.gamma = 16;
  config.prediction.window = 3;
  // Replay the check-in stream as the paper does (each subinterval's
  // check-ins define that instance's workers); fleet_dispatch demos the
  // worker-rejoin mode instead.
  config.workers_rejoin = false;

  std::printf("SF photo campaign: %d instances, %lld photographers, "
              "%lld photo tasks\n\n",
              workload.num_instances,
              static_cast<long long>(workload.num_workers),
              static_cast<long long>(workload.num_tasks));

  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
        AssignerKind::kRandom}) {
    auto assigner = CreateAssigner(kind);
    Simulator sim(config, &quality);
    const auto summary = sim.Run(stream, assigner.get());
    if (!summary.ok()) {
      std::printf("%s failed: %s\n", assigner->name(),
                  summary.status().ToString().c_str());
      return 1;
    }
    const SimulationSummary& s = summary.value();
    std::printf("%-7s total quality %8.1f | cost %8.1f | assigned %5lld | "
                "%6.3f s/instance | pred.err W %.1f%% T %.1f%%\n",
                assigner->name(), s.total_quality, s.total_cost,
                static_cast<long long>(s.total_assigned), s.avg_cpu_seconds,
                100.0 * s.avg_worker_prediction_error,
                100.0 * s.avg_task_prediction_error);
  }

  // Per-instance view for the greedy assigner.
  std::printf("\nPer-instance view (GREEDY):\n");
  std::printf("%4s %8s %8s %9s %9s %8s %8s\n", "p", "workers", "tasks",
              "pred.wkr", "pred.tsk", "assigned", "quality");
  auto assigner = CreateAssigner(AssignerKind::kGreedy);
  Simulator sim(config, &quality);
  const auto summary = sim.Run(stream, assigner.get());
  for (const InstanceMetrics& m : summary.value().per_instance) {
    std::printf("%4lld %8lld %8lld %9lld %9lld %8lld %8.1f\n",
                static_cast<long long>(m.instance),
                static_cast<long long>(m.workers_available),
                static_cast<long long>(m.tasks_available),
                static_cast<long long>(m.predicted_workers),
                static_cast<long long>(m.predicted_tasks),
                static_cast<long long>(m.assigned), m.quality);
  }
  return 0;
}

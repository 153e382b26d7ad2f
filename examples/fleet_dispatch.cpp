// Courier fleet dispatch with heterogeneous skills: deliveries come in
// four categories (documents, groceries, furniture, fragile goods) and
// couriers have per-category expertise. Uses the SkillQualityModel — a
// structured alternative to the paper's i.i.d. quality scores — and
// contrasts prediction-based dispatch against the no-prediction baseline
// on the same streams (the paper's WP vs WoP comparison, Fig. 11/23-27).

#include <cstdio>

#include "core/assigner.h"
#include "quality/skill_quality.h"
#include "sim/simulator.h"
#include "workload/synthetic.h"

int main() {
  using namespace mqa;

  SyntheticConfig workload;
  workload.num_workers = 1200;  // couriers over the whole day
  workload.num_tasks = 1500;    // delivery requests
  workload.num_instances = 10;
  workload.worker_dist.kind = SpatialDistribution::kGaussian;  // depot-heavy
  workload.task_dist.kind = SpatialDistribution::kUniform;     // city-wide
  workload.velocity_lo = 0.2;
  workload.velocity_hi = 0.3;
  workload.deadline_lo = 1.0;
  workload.deadline_hi = 2.0;
  workload.seed = 99;
  const ArrivalStream stream = GenerateSynthetic(workload);

  // 4 delivery categories; expertise scaled to [0, 2].
  const SkillQualityModel quality(/*num_types=*/4, /*scale=*/2.0,
                                  /*seed=*/99);

  std::printf("Fleet dispatch: %d instances, %lld couriers, %lld deliveries, "
              "4 skill categories\n\n",
              workload.num_instances,
              static_cast<long long>(workload.num_workers),
              static_cast<long long>(workload.num_tasks));
  std::printf("%-7s %-14s %10s %10s %9s %12s\n", "algo", "prediction",
              "quality", "cost", "assigned", "s/instance");

  for (const bool use_prediction : {true, false}) {
    for (const AssignerKind kind :
         {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
          AssignerKind::kRandom}) {
      SimulatorConfig config;
      config.budget = 100.0;
      config.unit_price = 10.0;
      config.use_prediction = use_prediction;
      config.prediction.gamma = 12;
      config.prediction.window = 3;

      auto assigner = CreateAssigner(kind);
      Simulator sim(config, &quality);
      const auto summary = sim.Run(stream, assigner.get());
      if (!summary.ok()) {
        std::printf("%s failed: %s\n", assigner->name(),
                    summary.status().ToString().c_str());
        return 1;
      }
      const SimulationSummary& s = summary.value();
      std::printf("%-7s %-14s %10.1f %10.1f %9lld %12.4f\n", assigner->name(),
                  use_prediction ? "with (WP)" : "without (WoP)",
                  s.total_quality, s.total_cost,
                  static_cast<long long>(s.total_assigned),
                  s.avg_cpu_seconds);
    }
  }

  std::printf(
      "\nWith prediction the dispatcher can hold couriers back for\n"
      "deliveries that are about to arrive (see examples/quickstart for\n"
      "the mechanism in isolation). When pair qualities carry no\n"
      "predictable signal the two strategies converge — compare the WP\n"
      "and WoP rows above; docs/DEVIATIONS.md (row D12) records when\n"
      "prediction pays off.\n");
  return 0;
}

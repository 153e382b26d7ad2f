#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace mqa {
namespace bench {

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("MQA_BENCH_SCALE");
    if (env == nullptr) return 0.25;
    const double v = std::atof(env);
    return v > 0.0 && v <= 1.0 ? v : 0.25;
  }();
  return scale;
}

PaperDefaults Defaults() {
  PaperDefaults d;
  const double s = Scale();
  d.num_workers = std::max<int64_t>(60, static_cast<int64_t>(5000 * s));
  d.num_tasks = std::max<int64_t>(60, static_cast<int64_t>(5000 * s));
  d.num_instances = 15;
  d.budget = 300.0 * s;
  d.unit_price = 10.0;
  d.q_lo = 1.0;
  d.q_hi = 2.0;
  d.e_lo = 1.0;
  d.e_hi = 2.0;
  d.v_lo = 0.2;
  d.v_hi = 0.3;
  d.window = 3;
  d.gamma = 20;
  d.seed = 20170419;  // ICDE 2017
  return d;
}

SyntheticConfig MakeSyntheticConfig(const PaperDefaults& d) {
  SyntheticConfig c;
  c.num_workers = d.num_workers;
  c.num_tasks = d.num_tasks;
  c.num_instances = d.num_instances;
  c.worker_dist.kind = SpatialDistribution::kGaussian;
  c.task_dist.kind = SpatialDistribution::kZipf;
  c.velocity_lo = d.v_lo;
  c.velocity_hi = d.v_hi;
  c.deadline_lo = d.e_lo;
  c.deadline_hi = d.e_hi;
  c.seed = d.seed;
  return c;
}

CheckinConfig MakeCheckinConfig(const PaperDefaults& d) {
  CheckinConfig c;
  const double s = Scale();
  c.num_workers = std::max<int64_t>(80, static_cast<int64_t>(6143 * s));
  c.num_tasks = std::max<int64_t>(80, static_cast<int64_t>(8481 * s));
  c.num_instances = d.num_instances;
  c.velocity_lo = d.v_lo;
  c.velocity_hi = d.v_hi;
  c.deadline_lo = d.e_lo;
  c.deadline_hi = d.e_hi;
  c.seed = d.seed;
  return c;
}

double CheckinBudget() { return 300.0; }

VariantResult RunVariant(const ArrivalStream& stream,
                         const QualityModel& quality, AssignerKind kind,
                         bool with_prediction, const PaperDefaults& d) {
  SimulatorConfig config;
  config.budget = d.budget;
  config.unit_price = d.unit_price;
  config.use_prediction = with_prediction;
  config.prediction.gamma = d.gamma;
  config.prediction.window = d.window;
  config.prediction.seed = d.seed;
  // The paper's evaluation replays check-in/synthetic arrivals per
  // subinterval; finished workers do not teleport back into the pool at
  // task locations. Rejoin stays available as a Simulator feature and is
  // exercised by the examples and tests.
  config.workers_rejoin = false;

  AssignerOptions options;
  options.seed = d.seed;
  auto assigner = CreateAssigner(kind, options);
  Simulator sim(config, &quality);
  const auto summary = sim.Run(stream, assigner.get());
  MQA_CHECK(summary.ok()) << summary.status();

  VariantResult out;
  out.name = std::string(AssignerKindToString(kind)) +
             (with_prediction ? "_WP" : "_WoP");
  out.quality = summary.value().total_quality;
  out.seconds = summary.value().avg_cpu_seconds;
  out.assigned = summary.value().total_assigned;
  return out;
}

std::vector<VariantResult> RunAllVariants(const ArrivalStream& stream,
                                          const QualityModel& quality,
                                          const PaperDefaults& d,
                                          bool include_wop) {
  std::vector<VariantResult> out;
  const AssignerKind kinds[] = {AssignerKind::kGreedy,
                                AssignerKind::kDivideConquer,
                                AssignerKind::kRandom};
  for (const auto kind : kinds) {
    out.push_back(RunVariant(stream, quality, kind, true, d));
  }
  if (include_wop) {
    for (const auto kind : kinds) {
      out.push_back(RunVariant(stream, quality, kind, false, d));
    }
  }
  return out;
}

void InitObservability() {
  Tracer::InitFromEnv();
  RunReport::InitFromEnv();
  RunReport::Get().SetConfig("bench_scale", Scale());
}

std::string ProvenanceFragment() { return RunReport::ProvenanceFragment(); }

void PrintHeader(const std::string& title) {
  // Every bench calls this first, so the MQA_* observability variables
  // work on all of them without per-bench plumbing.
  InitObservability();
  std::printf("=== %s ===\n", title.c_str());
  std::printf("(workload scale %.2f of the paper's; set MQA_BENCH_SCALE=1 "
              "for full scale)\n\n",
              Scale());
}

void PrintSweepTables(
    const std::string& param_name,
    const std::vector<std::string>& param_values,
    const std::vector<std::vector<VariantResult>>& rows) {
  MQA_CHECK(param_values.size() == rows.size()) << "row count mismatch";
  if (rows.empty()) return;

  const auto print_table = [&](const char* what, bool quality) {
    std::printf("%s:\n", what);
    std::printf("%-14s", param_name.c_str());
    for (const auto& v : rows[0]) std::printf(" %12s", v.name.c_str());
    std::printf("\n");
    for (size_t r = 0; r < rows.size(); ++r) {
      std::printf("%-14s", param_values[r].c_str());
      for (const auto& v : rows[r]) {
        if (quality) {
          std::printf(" %12.1f", v.quality);
        } else {
          std::printf(" %12.4f", v.seconds);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  };
  print_table("Quality score", true);
  print_table("Running time (s per instance)", false);
}

}  // namespace bench
}  // namespace mqa

// Ablation benches for three design choices:
//
//  A1 — per-cell count predictor: the paper's linear regression vs the
//       last-value and moving-average baselines (end-to-end quality and
//       prediction error; docs/DEVIATIONS.md, row D9);
//  A2 — divide-and-conquer branching factor: the Appendix-C cost-model
//       choice of g vs fixed g in {2, 4, 8, 16, 32};
//  A3 — Eq. 9 confidence level delta of the chance-constrained budget.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "quality/range_quality.h"

namespace {

using namespace mqa;

bench::VariantResult RunWith(const ArrivalStream& stream,
                             const QualityModel& quality,
                             const bench::PaperDefaults& d,
                             const SimulatorConfig& config,
                             const AssignerOptions& options,
                             AssignerKind kind) {
  (void)d;
  auto assigner = CreateAssigner(kind, options);
  Simulator sim(config, &quality);
  const auto summary = sim.Run(stream, assigner.get());
  bench::VariantResult out;
  out.name = AssignerKindToString(kind);
  out.quality = summary.value().total_quality;
  out.seconds = summary.value().avg_cpu_seconds;
  out.assigned = summary.value().total_assigned;
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("Ablations — design choices");
  const bench::PaperDefaults d = bench::Defaults();
  const RangeQualityModel quality(d.q_lo, d.q_hi, d.seed);
  const ArrivalStream synth =
      GenerateSynthetic(bench::MakeSyntheticConfig(d));
  const ArrivalStream real = GenerateCheckin(bench::MakeCheckinConfig(d));

  SimulatorConfig base;
  base.budget = d.budget;
  base.unit_price = d.unit_price;
  base.prediction.gamma = d.gamma;
  base.prediction.window = d.window;
  base.prediction.seed = d.seed;
  base.workers_rejoin = false;  // replay arrivals, like the figure benches

  // ------------------------------------------------- A1: count predictor
  std::printf("A1 — count predictor (GREEDY, check-in workload, B=%.0f):\n",
              bench::CheckinBudget());
  std::printf("%-20s %12s %12s %14s\n", "predictor", "quality",
              "s/instance", "pred.err W(%)");
  const std::pair<CountPredictorKind, const char*> predictors[] = {
      {CountPredictorKind::kLinearRegression, "linear-regression"},
      {CountPredictorKind::kLastValue, "last-value"},
      {CountPredictorKind::kMovingAverage, "moving-average"}};
  for (const auto& [kind, name] : predictors) {
    SimulatorConfig config = base;
    config.budget = bench::CheckinBudget();
    config.prediction.predictor = kind;
    auto assigner = CreateAssigner(AssignerKind::kGreedy);
    Simulator sim(config, &quality);
    const auto summary = sim.Run(real, assigner.get());
    std::printf("%-20s %12.1f %12.4f %14.2f\n", name,
                summary.value().total_quality,
                summary.value().avg_cpu_seconds,
                100.0 * summary.value().avg_worker_prediction_error);
  }

  // --------------------------------------------- A2: D&C branching factor
  std::printf("\nA2 — D&C branching factor g (synthetic workload):\n");
  std::printf("%-20s %12s %12s\n", "g", "quality", "s/instance");
  for (const int g : {0, 2, 4, 8, 16, 32}) {
    AssignerOptions options;
    options.seed = d.seed;
    options.dc_branching = g;
    const auto r = RunWith(synth, quality, d, base, options,
                           AssignerKind::kDivideConquer);
    std::printf("%-20s %12.1f %12.4f\n",
                g == 0 ? "cost-model (auto)" : std::to_string(g).c_str(),
                r.quality, r.seconds);
  }

  // ------------------------------------------------- A3: Eq. 9 delta
  std::printf("\nA3 — Eq. 9 confidence delta (GREEDY, synthetic):\n");
  std::printf("%-20s %12s %12s\n", "delta", "quality", "s/instance");
  for (const double delta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    AssignerOptions options;
    options.seed = d.seed;
    options.delta = delta;
    const auto r =
        RunWith(synth, quality, d, base, options, AssignerKind::kGreedy);
    std::printf("%-20.1f %12.1f %12.4f\n", delta, r.quality, r.seconds);
  }
  return 0;
}

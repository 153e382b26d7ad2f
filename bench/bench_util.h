#ifndef MQA_BENCH_BENCH_UTIL_H_
#define MQA_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/assigner.h"
#include "quality/quality_model.h"
#include "sim/arrival_stream.h"
#include "sim/simulator.h"
#include "workload/checkin.h"
#include "workload/synthetic.h"

namespace mqa {
namespace bench {

/// Global workload scale factor in (0, 1], read once from the
/// MQA_BENCH_SCALE environment variable (default 0.25). The paper's
/// experiments use m = n = 5K entities over R = 15 instances on a 2011
/// Xeon; the default scale keeps the full bench suite around ten minutes
/// while preserving every qualitative shape. Set MQA_BENCH_SCALE=1 to run
/// at full paper scale.
double Scale();

/// Paper defaults (Table IV bold values) pre-scaled by Scale():
/// m = n = 5000 * scale, R = 15, B = 300 * scale, C = 10, [q]=[1,2],
/// [e]=[1,2], [v]=[0.2,0.3], w = 3, 20x20 grid.
struct PaperDefaults {
  int64_t num_workers;
  int64_t num_tasks;
  int num_instances;
  double budget;
  double unit_price;
  double q_lo, q_hi;
  double e_lo, e_hi;
  double v_lo, v_hi;
  int window;
  int gamma;
  uint64_t seed;
};
PaperDefaults Defaults();

/// Synthetic stream from defaults (worker Gaussian, task Zipf — the
/// paper's default combination).
SyntheticConfig MakeSyntheticConfig(const PaperDefaults& d);

/// Check-in ("real data" substitute) stream from defaults; the worker and
/// task totals follow the paper's Gowalla/Foursquare SF extraction ratio
/// (6143 : 8481), scaled.
CheckinConfig MakeCheckinConfig(const PaperDefaults& d);

/// Budget used by the real-data (check-in) figures: the paper's B = 300,
/// deliberately *not* scaled by Scale(). Per-pair travel costs depend on
/// distances, which do not shrink when the entity count is scaled down,
/// and the paper's real-data experiments run in a slack-budget regime
/// (clustered check-ins make assignments cheap). A linearly scaled
/// budget would bind hard and flip the Fig. 12/13 shapes; the unscaled
/// value preserves the regime and equals the paper's setting at full
/// scale (docs/DEVIATIONS.md, row D10).
double CheckinBudget();

/// One measured algorithm variant.
struct VariantResult {
  std::string name;       // e.g. "GREEDY_WP"
  double quality = 0.0;   // total quality score (paper Eq. 1)
  double seconds = 0.0;   // mean running time per instance
  int64_t assigned = 0;
};

/// Runs the given assigner kind over `stream`, with or without
/// prediction, and returns its measured result.
VariantResult RunVariant(const ArrivalStream& stream,
                         const QualityModel& quality, AssignerKind kind,
                         bool with_prediction, const PaperDefaults& d);

/// Runs the paper's six curves (GREEDY/D&C/RANDOM x WP/WoP) when
/// `include_wop`, otherwise the three WP curves.
std::vector<VariantResult> RunAllVariants(const ArrivalStream& stream,
                                          const QualityModel& quality,
                                          const PaperDefaults& d,
                                          bool include_wop);

/// Initializes every environment-driven observability surface in one
/// place — MQA_TRACE and MQA_RUN_REPORT — so all benches honor the same
/// variables uniformly. PrintHeader calls this; benches that print their
/// own headers (index_bench, parallel_bench, table1_example) call it
/// directly. Idempotent.
void InitObservability();

/// The run report's {"git": ..., "machine": ...} identity pair as a JSON
/// fragment (no surrounding braces) — benches embed it in BENCH_*.json
/// as the "provenance" block so regression artifacts say which source
/// revision and hardware produced them.
std::string ProvenanceFragment();

/// Table printing: header names the figure, columns are variants, one row
/// per swept parameter value; a quality table and a running-time table
/// are printed (matching the paper's (a)/(b) subfigures).
void PrintHeader(const std::string& title);
void PrintSweepTables(
    const std::string& param_name,
    const std::vector<std::string>& param_values,
    const std::vector<std::vector<VariantResult>>& rows);

}  // namespace bench
}  // namespace mqa

#endif  // MQA_BENCH_BENCH_UTIL_H_

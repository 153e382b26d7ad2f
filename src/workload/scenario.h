#ifndef MQA_WORKLOAD_SCENARIO_H_
#define MQA_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <vector>

#include "sim/arrival_stream.h"
#include "workload/spatial_dist.h"

namespace mqa {

class ThreadPool;

/// Non-homogeneous arrival scenarios for the streaming engine — workload
/// shapes the paper's uniform-rate Table-IV generator cannot produce.
/// Every scenario emits *timestamped* arrivals on a continuous clock in
/// [0, horizon); bucket them per instance (ScenarioToArrivalStream) to
/// feed the batch simulator, or lift them into events
/// (EventQueue::FromScenario) to feed the streaming engine.
enum class ScenarioKind {
  /// Uniform arrival rate — the Table-IV regime on a continuous clock.
  kPaper,
  /// Two Gaussian intensity peaks (morning/evening commute): the arrival
  /// rate ramps up to rush_amplitude x base and back down, twice.
  kRushHour,
  /// Poisson bursts: a base rate plus num_bursts seed-placed windows
  /// during which the rate multiplies by burst_amplitude — the
  /// flash-crowd regime that stresses epoch policies and backlog.
  kBursty,
  /// Uniform rate, migrating geography: the spatial distribution's
  /// center drifts from drift_start to drift_end over the horizon, so
  /// the grid predictor's per-cell history goes stale continuously.
  kHotspotDrift,
};

/// Short display name ("PAPER", "RUSH-HOUR", "BURSTY", "HOTSPOT-DRIFT").
const char* ScenarioKindToString(ScenarioKind kind);

struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kBursty;

  /// Totals over the whole horizon.
  int64_t num_workers = 5000;
  int64_t num_tasks = 5000;

  /// Continuous-time span of the scenario, in instance units.
  double horizon = 15.0;

  SpatialDistConfig worker_dist{SpatialDistribution::kGaussian, 0.25, 0.3,
                                100};
  SpatialDistConfig task_dist{SpatialDistribution::kZipf, 0.25, 0.3, 100};

  double velocity_lo = 0.2;
  double velocity_hi = 0.3;
  double deadline_lo = 1.0;
  double deadline_hi = 2.0;

  /// kRushHour: peak positions/width as fractions of the horizon, and
  /// the peak intensity as a multiple of the base rate.
  double rush_peak1 = 0.3;
  double rush_peak2 = 0.75;
  double rush_width = 0.08;
  double rush_amplitude = 4.0;

  /// kBursty: burst windows (centers drawn from the seed), each
  /// burst_width of the horizon wide at burst_amplitude x the base rate.
  int num_bursts = 4;
  double burst_width = 0.04;
  double burst_amplitude = 12.0;

  /// kHotspotDrift: the distribution center's path over the horizon.
  Point drift_start{0.25, 0.25};
  Point drift_end{0.75, 0.75};

  uint64_t seed = 42;
};

struct TimedWorker {
  double time = 0.0;
  Worker worker;
};
struct TimedTask {
  double time = 0.0;
  Task task;
};

/// A scenario's arrivals, each list sorted by (time, id). Entities are
/// stamped arrival = floor(time) — the instance that "contains" them.
struct ScenarioStream {
  std::vector<TimedWorker> workers;
  std::vector<TimedTask> tasks;
};

/// Generates a scenario. Arrival times are drawn by inverse-CDF from the
/// scenario's intensity function, locations/attributes exactly as the
/// synthetic generator draws them (drifted for kHotspotDrift). Per-chunk
/// RNG streams as in GenerateSynthetic: pass a ThreadPool to
/// parallelize; output is byte-identical for any thread count.
ScenarioStream GenerateScenario(const ScenarioConfig& config,
                                ThreadPool* pool = nullptr);

/// Buckets a scenario into per-instance batches (instance p holds the
/// arrivals with floor(time) == p) so the batch Simulator can run the
/// same workload the streaming engine sees. `num_instances` must cover
/// ceil(horizon).
ArrivalStream ScenarioToArrivalStream(const ScenarioStream& scenario,
                                      int num_instances);

}  // namespace mqa

#endif  // MQA_WORKLOAD_SCENARIO_H_

#ifndef MQA_STREAM_STREAM_METRICS_H_
#define MQA_STREAM_STREAM_METRICS_H_

#include <cstdint>
#include <vector>

#include "sim/metrics.h"

namespace mqa {

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
/// Copies and sorts — metrics-path use only.
double Percentile(std::vector<double> values, double p);

/// Why an assignment epoch fired — the "report every auto decision"
/// signal for epoch policies. Exported per epoch (CSV fire_reason
/// column).
enum class EpochFireReason {
  kGridTick = 0,     // per-instance / fixed-interval grid epoch
  kKArrivals,        // k-arrivals trigger reached
  kBacklogThreshold, // adaptive backlog estimate crossed the threshold
  kMaxInterval,      // adaptive max-interval failsafe while tasks waited
  kFinalFlush,       // end-of-stream flush of staged/pending entities
};

const char* EpochFireReasonToString(EpochFireReason reason);

/// What the batch metrics cannot see: one assignment epoch of the
/// streaming engine, with its position on the continuous clock, the
/// latency of the epoch itself, and the state of the queue around it.
struct EpochStreamMetrics {
  /// The shared per-epoch measurements — the epoch's run-report row
  /// (availability, prediction errors, assigned/quality/cost, wall and
  /// phase times, pool and process numbers). `instance.instance`
  /// is the epoch index; in per-instance mode it equals the batch
  /// instance.
  InstanceMetrics instance;

  /// Continuous time at which the epoch fired.
  double epoch_time = 0.0;

  /// Entities ingested from the event queue for this epoch (worker count
  /// includes rejoins).
  int64_t ingested_workers = 0;
  int64_t ingested_tasks = 0;

  /// Pending unassigned tasks right before / right after the epoch's
  /// assignment was applied (backlog depth).
  int64_t backlog_before = 0;
  int64_t backlog_after = 0;

  /// Pending tasks dropped by this epoch's aging because their deadline
  /// fully elapsed unserved.
  int64_t expired = 0;

  /// Pending tasks (before assignment) with at least one available
  /// worker in reach: the epoch pool's PairPoolStats::covered_tasks, -1
  /// when the assigner built no pool. backlog_before - coverable is the
  /// structurally unserveable backlog an epoch policy cannot help.
  int64_t coverable_backlog = -1;

  /// Mean arrival -> assignment wait over this epoch's assigned tasks
  /// (0 when nothing was assigned), in continuous-time units.
  double mean_queue_wait = 0.0;

  /// Which policy decision fired this epoch.
  EpochFireReason fire_reason = EpochFireReason::kGridTick;
};

/// Whole-run aggregates of a streaming simulation.
struct StreamSummary {
  std::vector<EpochStreamMetrics> per_epoch;

  /// Arrival -> assignment wait of every assigned task, in assignment
  /// order (the raw sample set behind the wait percentiles).
  std::vector<double> queue_waits;

  int64_t total_assigned = 0;
  int64_t total_expired = 0;
  double total_quality = 0.0;
  double total_cost = 0.0;

  /// Percentiles over per-epoch wall-clock assignment latency (seconds).
  double p50_epoch_latency = 0.0;
  double p99_epoch_latency = 0.0;
  double max_epoch_latency = 0.0;

  /// Percentiles over queue_waits (continuous-time units).
  double p50_queue_wait = 0.0;
  double p99_queue_wait = 0.0;

  double mean_backlog = 0.0;
  int64_t max_backlog = 0;

  /// Recomputes every aggregate from per_epoch and queue_waits.
  void Finalize();
};

}  // namespace mqa

#endif  // MQA_STREAM_STREAM_METRICS_H_

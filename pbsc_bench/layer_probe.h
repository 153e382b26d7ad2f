#ifndef PBSC_BENCH_LAYER_PROBE_H_
#define PBSC_BENCH_LAYER_PROBE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/assigner.h"
#include "index/task_index_cache.h"
#include "index/worker_index_cache.h"
#include "prediction/predictor.h"
#include "span_recorder.h"

namespace pbsc {

/// What the probe counted over one traced run.
struct ProbeCounters {
  int64_t index_inserted = 0;
  int64_t index_erased = 0;
  int64_t backlog_sum = 0;     // current tasks handed to Assign, summed
  int64_t backlog_max = 0;
  int64_t coverable_sum = 0;   // of those, tasks some current worker reaches
  int64_t epochs = 0;
  /// Arrival -> assignment waits on the batch clock (epoch index minus
  /// the task's arrival instance); empty for stream runs, whose engine
  /// measures waits on its continuous clock.
  std::vector<double> batch_waits;
};

/// The traced run's Assigner decorator. The simulators call Assign once
/// per epoch with the full instance; around the wrapped assigner the probe
/// replays each layer's public entry point on that same input, each in
/// its own span:
///
///   bench.epoch_hook
///     prediction.step        GridPredictor::Observe + PredictNext over
///                            the epoch's new arrivals
///     index.sync             TaskIndexCache::BeginInstance(tasks)
///     stream.coverable_scan  WorkerIndexCache + QueryReachable per task
///     core.assign            the wrapped Assigner::Assign
///       core.pool.build      BuildPairPool inside it (duration from the
///                            pool's own PairPoolStats::build_seconds)
///     model.validate         ValidateAssignment
///
/// The replays do not feed the simulation: the assignment returned is the
/// wrapped assigner's, so traced and untraced runs must agree bit for bit.
class LayerProbe final : public mqa::Assigner {
 public:
  /// `inner` and `spans` must outlive the probe.
  LayerProbe(mqa::Assigner* inner, const mqa::PredictionConfig& prediction,
             SpanRecorder* spans, bool batch_clock);

  mqa::Result<mqa::AssignmentResult> Assign(
      const mqa::ProblemInstance& instance) override;
  const char* name() const override { return inner_->name(); }

  const ProbeCounters& counters() const { return counters_; }

 private:
  mqa::Assigner* inner_;
  SpanRecorder* spans_;
  bool batch_clock_;
  mqa::GridPredictor predictor_;
  mqa::TaskIndexCache task_index_;
  mqa::WorkerIndexCache worker_index_;
  std::unordered_set<int64_t> seen_workers_;
  std::unordered_set<int64_t> seen_tasks_;
  ProbeCounters counters_;
};

}  // namespace pbsc

#endif  // PBSC_BENCH_LAYER_PROBE_H_

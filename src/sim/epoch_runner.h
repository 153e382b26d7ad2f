#ifndef MQA_SIM_EPOCH_RUNNER_H_
#define MQA_SIM_EPOCH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/assigner.h"
#include "core/pair_pool.h"
#include "exec/parallel_runner.h"
#include "index/task_index_cache.h"
#include "prediction/predictor.h"
#include "quality/quality_model.h"
#include "sim/metrics.h"
#include "sim/simulator_config.h"

namespace mqa {

/// Everything one assignment epoch produces besides side effects on the
/// runner's prediction/index state. The caller owns the entity pools and
/// applies the outcome to them (remove assigned entities, route rejoin
/// workers), which is the only place the batch and streaming simulators
/// differ.
struct EpochOutcome {
  /// The raw assignment (current-current pairs; indices into the pools
  /// passed to RunEpoch).
  AssignmentResult result;

  /// Per-epoch measurements (instance stamp, availability, prediction
  /// errors, cpu seconds, assigned/quality/cost) — the batch simulator
  /// records these verbatim as its InstanceMetrics.
  InstanceMetrics metrics;

  /// Current tasks some current worker can reach, before assignment: the
  /// PairPoolStats::covered_tasks of the epoch's pool, -1 when the
  /// assigner built none. The streaming engine's coverable backlog.
  int64_t covered_tasks = -1;

  /// worker_assigned[i] / task_assigned[j] flag the available entities
  /// the assignment consumed (sized to the pool sizes passed in).
  std::vector<char> worker_assigned;
  std::vector<char> task_assigned;

  /// Workers that completed a task and rejoin the pool at the task's
  /// location after their travel time, quantized to the instance grid
  /// ("workers who finished tasks ... are also treated as new workers",
  /// paper Section II-E). `offset >= 1` is in whole instances from the
  /// epoch that produced the outcome; the caller re-stamps `worker.arrival`
  /// at delivery. Empty unless SimulatorConfig::workers_rejoin.
  struct Rejoin {
    Worker worker;
    int64_t offset = 1;
  };
  std::vector<Rejoin> rejoins;
};

/// The per-epoch core of the MQA_Framework loop (paper Fig. 3), shared by
/// the batch Simulator and the streaming engine so that both drive the
/// *identical* predict -> assemble -> assign -> validate pipeline:
///
///   Observe arrivals -> score previous prediction -> PredictNext ->
///   assemble ProblemInstance (available entities + predicted) -> load
///   the task index -> Assign -> validate -> compute rejoins.
///
/// The runner owns all cross-epoch state: the grid predictor, the
/// TaskIndexCache it reloads every epoch, the pair-pool storage and the
/// thread pool. Callers own the entity pools and the clock — which epochs
/// happen when, and how arrivals, carryover and expiry feed the pools, is
/// entirely theirs. Byte-determinism follows: two callers issuing the
/// same sequence of RunEpoch calls with the same pools get
/// bitwise-identical outcomes.
class EpochRunner {
 public:
  /// `quality` must outlive the runner.
  EpochRunner(const SimulatorConfig& config, const QualityModel* quality);

  /// Runs one epoch. `new_workers`/`new_tasks` are this epoch's arrivals
  /// (already appended to the pools) used for prediction bookkeeping;
  /// `available_workers`/`available_tasks` are the full current pools the
  /// assigner sees. `predict_next` gates PredictNext — pass false at the
  /// final epoch, where predicting has no consumer (the batch loop's
  /// `p + 1 < num_instances`).
  Result<EpochOutcome> RunEpoch(int64_t epoch_index,
                                const std::vector<Worker>& new_workers,
                                const std::vector<Task>& new_tasks,
                                const std::vector<Worker>& available_workers,
                                const std::vector<Task>& available_tasks,
                                bool predict_next, Assigner* assigner);

 private:
  SimulatorConfig config_;
  const QualityModel* quality_;
  GridPredictor predictor_;
  TaskIndexCache task_index_cache_;
  ParallelRunner runner_;

  // The pair-pool storage every epoch's pool build writes into; its
  // vectors keep their capacity from one epoch to the next.
  PairPoolStorage pool_storage_;

  // The previous epoch's predicted per-cell counts (moved out of its
  // Prediction), compared against the current epoch's actual arrivals
  // (Fig. 10).
  std::vector<int64_t> prev_pred_worker_counts_;
  std::vector<int64_t> prev_pred_task_counts_;

  // Largest RSS sampled at any epoch end; floors the reported peak RSS.
  int64_t max_sampled_rss_bytes_ = 0;
};

}  // namespace mqa

#endif  // MQA_SIM_EPOCH_RUNNER_H_

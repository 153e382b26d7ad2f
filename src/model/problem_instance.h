#ifndef MQA_MODEL_PROBLEM_INSTANCE_H_
#define MQA_MODEL_PROBLEM_INSTANCE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "model/task.h"
#include "model/types.h"
#include "model/worker.h"

namespace mqa {

struct GreedyStats;
struct PairPoolStats;
struct PairPoolStorage;
class QualityModel;
class SpatialIndex;
class ThreadPool;

/// One-shot input to an MQA assigner: the current workers W_p and tasks
/// T_p, plus (optionally) the predicted workers Ŵ_{p+1} and tasks T̂_{p+1},
/// together with the budget parameters of Def. 4.
///
/// Workers are stored current-first: indices [0, num_current_workers) are
/// current, the rest predicted; likewise for tasks. The quality model maps
/// any (worker, task) pair of *current* entities to its fixed score q_ij;
/// scores of pairs involving predicted entities are estimated from current
/// samples (paper Section III-B) by the pair builder, not by the model.
class ProblemInstance {
 public:
  ProblemInstance() = default;

  /// Builds an instance. `quality` must outlive the instance.
  ProblemInstance(std::vector<Worker> workers, size_t num_current_workers,
                  std::vector<Task> tasks, size_t num_current_tasks,
                  const QualityModel* quality, double unit_price,
                  double budget);

  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  size_t num_current_workers() const { return num_current_workers_; }
  size_t num_current_tasks() const { return num_current_tasks_; }
  size_t num_predicted_workers() const {
    return workers_.size() - num_current_workers_;
  }
  size_t num_predicted_tasks() const {
    return tasks_.size() - num_current_tasks_;
  }

  bool IsCurrentWorker(int32_t index) const {
    return static_cast<size_t>(index) < num_current_workers_;
  }
  bool IsCurrentTask(int32_t index) const {
    return static_cast<size_t>(index) < num_current_tasks_;
  }

  const QualityModel* quality_model() const { return quality_; }

  /// Optional spatial index over tasks(), used by BuildPairPool to skip
  /// the full worker x task scan. Entry ids must be indices into tasks()
  /// and the index must cover all tasks (current and predicted). Like the
  /// quality model it is non-owning and must outlive the instance; the
  /// simulator points this at the TaskIndexCache it loads every epoch.
  const SpatialIndex* task_index() const { return task_index_; }
  void set_task_index(const SpatialIndex* index) { task_index_ = index; }

  /// Optional thread pool the assigner may fan work across (the pair
  /// builder's worker-range scan and fill, divide-and-conquer
  /// subproblems); nullptr — the default — selects the sequential code
  /// paths. Non-owning, must outlive the instance; the simulator points
  /// this at the pool of its SimulatorConfig::num_threads runner. Thread
  /// count never changes results (see src/exec/README.md), so carrying
  /// the pool on the instance is purely an execution hint.
  ThreadPool* thread_pool() const { return thread_pool_; }
  void set_thread_pool(ThreadPool* pool) { thread_pool_ = pool; }

  /// Optional storage for the assigner's pair-pool columns and build
  /// scratch (see core/pair_pool.h), backing one live pool at a time.
  /// Non-owning, must outlive every pool built from this instance; the
  /// simulator lends the storage it keeps across epochs. Null (the
  /// default) gives each pool its own. Like thread_pool, purely an
  /// execution hint — it never changes results.
  PairPoolStorage* pool_storage() const { return pool_storage_; }
  void set_pool_storage(PairPoolStorage* storage) { pool_storage_ = storage; }

  /// Optional sink for pair-pool measurements (size, bytes, build time).
  /// BuildPairPool writes the finished pool's stats here as it returns.
  /// Non-owning; the simulator wires this into its per-epoch metrics.
  PairPoolStats* pool_stats() const { return pool_stats_; }
  void set_pool_stats(PairPoolStats* stats) { pool_stats_ = stats; }

  /// Optional sink for the greedy selection loop's counts (see
  /// core/greedy.h). RunGreedy and RunDivideConquer overwrite it with
  /// the totals of every GreedySelect call they made on this instance;
  /// other assigners leave it untouched. Non-owning; the simulator wires
  /// this into its per-epoch metrics.
  GreedyStats* greedy_stats() const { return greedy_stats_; }
  void set_greedy_stats(GreedyStats* stats) { greedy_stats_ = stats; }

  /// Unit price C per distance unit (paper Section II-C).
  double unit_price() const { return unit_price_; }

  /// Per-instance traveling budget B (paper Def. 4 condition 2).
  double budget() const { return budget_; }

  /// True when a worker moving at `worker.velocity` from somewhere in the
  /// worker's location box can reach the task's location before its
  /// deadline. Predicted boxes use the optimistic (minimum) distance so
  /// that possibly-valid pairs are kept; the existence probability models
  /// the risk (docs/DEVIATIONS.md, rows D5 and D6).
  bool CanReach(const Worker& worker, const Task& task) const {
    return CanReachAtDistance(worker, task,
                              worker.location.MinDistance(task.location));
  }

  /// CanReach with the worker-to-task box min-distance already in hand
  /// (spatial-index radius queries compute it for their filter; this
  /// avoids recomputing it per candidate on the pair-generation hot
  /// path). `min_dist` must equal worker.location.MinDistance(task.location).
  bool CanReachAtDistance(const Worker& worker, const Task& task,
                          double min_dist) const {
    if (worker.velocity <= 0.0) return false;
    // A predicted worker only joins at the next instance; serving a
    // *current* task leaves it e_j minus one instance of travel budget. A
    // current task that would expire before the predicted worker exists
    // is unreachable — without this, the greedy reserves tasks for
    // workers that arrive too late and the reservation is a pure loss.
    double deadline = task.deadline;
    if (worker.predicted && !task.predicted) {
      deadline -= kInstanceDuration;
      if (deadline < 0.0) return false;
    }
    return min_dist <= worker.velocity * deadline;
  }

  /// Validates internal consistency (ordering of current vs predicted,
  /// non-negative parameters). Returns a descriptive error on violation.
  Status Validate() const;

 private:
  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  size_t num_current_workers_ = 0;
  size_t num_current_tasks_ = 0;
  const QualityModel* quality_ = nullptr;
  const SpatialIndex* task_index_ = nullptr;
  ThreadPool* thread_pool_ = nullptr;
  PairPoolStorage* pool_storage_ = nullptr;
  PairPoolStats* pool_stats_ = nullptr;
  GreedyStats* greedy_stats_ = nullptr;
  double unit_price_ = 1.0;
  double budget_ = 0.0;
};

}  // namespace mqa

#endif  // MQA_MODEL_PROBLEM_INSTANCE_H_

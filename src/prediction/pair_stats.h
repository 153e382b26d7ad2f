#ifndef MQA_PREDICTION_PAIR_STATS_H_
#define MQA_PREDICTION_PAIR_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/running_stats.h"
#include "stats/uncertain.h"

namespace mqa {

/// Sample-based statistics of quality scores and existence probabilities
/// for pairs involving predicted workers/tasks (paper Section III-B).
///
/// All statistics are derived from the *current* valid pairs of a
/// ProblemInstance:
///   Case 1 <ŵ, t_j>: quality samples = q_ij over the n_j current workers
///     that can reach t_j; existence = min(n_j / |W_p|, 1).
///   Case 2 <w_i, t̂>: quality samples = q_ij over the m_i current tasks
///     w_i can reach; existence = min(m_i / |T_p|, 1).
///   Case 3 <ŵ, t̂>: quality samples = q_ij over all current valid pairs;
///     existence = u / (|W_p| * |T_p|), u = number of current valid pairs.
///
/// The valid pairs are read from a pair pool's columns: the pool already
/// holds every current-current pair that passed CanReach, with its score,
/// so no index query or reachability test is repeated. BuildPairPool
/// computes these once per pool (PairPoolBuilder::ComputeCaseStats).
class PairStatistics {
 public:
  /// For pair k, worker_col[k]/task_col[k] are its indices and
  /// fixed_quality_col[k] its score q_ij; pairs whose worker or task index
  /// falls outside the current ranges (predicted pairs) are skipped. The
  /// samples accumulate in column order — BuildPairPool's is worker-major
  /// with tasks ascending per worker, the same for any thread count — so
  /// the running moments are reproducible bit for bit.
  PairStatistics(size_t num_current_workers, size_t num_current_tasks,
                 const int32_t* worker_col, const int32_t* task_col,
                 const double* fixed_quality_col, size_t num_pairs);

  /// Quality distribution for a pair of a predicted worker with current
  /// task index `task_index` (Case 1).
  Uncertain QualityCase1(int32_t task_index) const;

  /// Quality distribution for a pair of current worker index
  /// `worker_index` with a predicted task (Case 2).
  Uncertain QualityCase2(int32_t worker_index) const;

  /// Quality distribution for a fully predicted pair (Case 3).
  Uncertain QualityCase3() const;

  /// Existence probabilities p̂_ij for the three predicted-pair cases.
  double ExistenceCase1(int32_t task_index) const;
  double ExistenceCase2(int32_t worker_index) const;
  double ExistenceCase3() const;

  /// Number of current-current valid pairs found.
  int64_t num_valid_pairs() const { return num_valid_pairs_; }

 private:
  static Uncertain FromStats(const RunningStats& s);

  size_t num_current_workers_;
  size_t num_current_tasks_;
  std::vector<RunningStats> per_task_;    // indexed by current task index
  std::vector<RunningStats> per_worker_;  // indexed by current worker index
  RunningStats global_;
  int64_t num_valid_pairs_ = 0;
};

}  // namespace mqa

#endif  // MQA_PREDICTION_PAIR_STATS_H_

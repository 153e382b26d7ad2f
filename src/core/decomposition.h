#ifndef MQA_CORE_DECOMPOSITION_H_
#define MQA_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "core/valid_pairs.h"
#include "model/problem_instance.h"

namespace mqa {

/// One MQA subproblem M_s: a disjoint group of tasks together with all
/// their valid worker-and-task pairs (paper Section V-A), which are the
/// pool's rows of those tasks (PairPool::PairsByTask); only their count is
/// kept. Subproblems may share (conflicting) workers; conflicts are
/// resolved at merge time.
struct Subproblem {
  std::vector<int32_t> task_indices;
  int64_t num_pairs = 0;

  size_t num_tasks() const { return task_indices.size(); }
};

/// MQA_Decomposition (paper Fig. 7): splits `task_indices` into `g`
/// subproblems of ceil(m'/g) tasks each. Anchors are chosen in a sweeping
/// style — the unassigned task with the smallest longitude (x of the
/// center point for predicted tasks; ties by smallest latitude) — and each
/// anchor pulls its nearest unassigned tasks (Euclidean distance between
/// center points). Tasks without any valid pair in `pool` are skipped.
std::vector<Subproblem> DecomposeTasks(const ProblemInstance& instance,
                                       const PairPool& pool,
                                       const std::vector<int32_t>& task_indices,
                                       int g);

}  // namespace mqa

#endif  // MQA_CORE_DECOMPOSITION_H_

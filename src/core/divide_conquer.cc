#include "core/divide_conquer.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "core/cost_model.h"
#include "core/decomposition.h"
#include "core/greedy.h"
#include "core/merge.h"
#include "core/repair.h"
#include "core/valid_pairs.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace mqa {

namespace {

// Subproblems smaller than this solve faster than the fan-out overhead of
// scheduling them; below it the recursion stays on the calling thread.
constexpr size_t kMinParallelTasksPerNode = 16;

// Average number of valid workers per task within one subproblem.
double SubproblemDegree(const Subproblem& sub) {
  if (sub.task_indices.empty()) return 0.0;
  return static_cast<double>(sub.pair_ids.size()) /
         static_cast<double>(sub.task_indices.size());
}

// True when the selected set's cost upper bounds respect both budget pots
// (current-instance pot and next-instance pot of size B each).
bool WithinBudgetUpperBound(const PairPool& pool,
                            const std::vector<int32_t>& selected,
                            double budget) {
  double current_ub = 0.0;
  double future_ub = 0.0;
  for (const int32_t id : selected) {
    (pool.InvolvesPredicted(id) ? future_ub : current_ub) += pool.CostUb(id);
  }
  constexpr double kEps = 1e-9;
  return current_ub <= budget + kEps && future_ub <= budget + kEps;
}

// Recursive MQA_D&C over one subproblem. `exec` (nullable) fans the
// subproblem solves of one level across the pool; each solve reads only
// (instance, pool, sub) and writes its own results slot, and the merge
// below consumes the slots in decomposition order on this thread — so the
// selection is byte-identical to the sequential loop for any thread
// count. Nested levels may fan out too: ThreadPool::ParallelFor composes
// (the caller always drains its own items).
std::vector<int32_t> SolveRecursive(const ProblemInstance& instance,
                                    const PairPool& pool,
                                    const Subproblem& problem, double delta,
                                    int branching, int depth,
                                    ThreadPool* exec) {
  MQA_CHECK(depth < 64) << "divide-and-conquer recursion too deep";
  // Spans only for nodes big enough to fan out — the same threshold as
  // the parallel schedule, so leaf-sized nodes stay span-free.
  MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                    "dc/node", static_cast<int64_t>(problem.num_tasks()));
  if (problem.task_indices.empty()) return {};
  if (problem.num_tasks() == 1) {
    // Leaf: pick the best worker for the single task greedily (Fig. 9
    // line 8).
    return GreedySelect(pool, problem.pair_ids, instance.budget(), delta);
  }

  const int g =
      branching > 0
          ? branching
          : EstimateBestBranching(static_cast<int64_t>(problem.num_tasks()),
                                  SubproblemDegree(problem));
  const std::vector<Subproblem> subproblems =
      DecomposeTasks(instance, pool, problem.task_indices, g);

  std::vector<std::vector<int32_t>> results(subproblems.size());
  const auto solve_one = [&](int64_t k) {
    const Subproblem& sub = subproblems[static_cast<size_t>(k)];
    results[static_cast<size_t>(k)] =
        sub.num_tasks() > 1
            ? SolveRecursive(instance, pool, sub, delta, branching, depth + 1,
                             exec)
            : GreedySelect(pool, sub.pair_ids, instance.budget(), delta);
  };
  if (exec != nullptr && subproblems.size() > 1 &&
      problem.num_tasks() >= kMinParallelTasksPerNode) {
    exec->ParallelFor(static_cast<int64_t>(subproblems.size()), solve_one);
  } else {
    for (size_t k = 0; k < subproblems.size(); ++k) {
      solve_one(static_cast<int64_t>(k));
    }
  }

  std::vector<int32_t> merged;
  {
    MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                      "dc/merge", static_cast<int64_t>(subproblems.size()));
    for (const std::vector<int32_t>& result : results) {
      MergeResults(pool, &merged, result);
    }
  }

  // Fig. 9 lines 12-15: budget adjustment.
  if (WithinBudgetUpperBound(pool, merged, instance.budget())) {
    return merged;
  }
  MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                    "dc/budget_reselect",
                    static_cast<int64_t>(merged.size()));
  return GreedySelect(pool, merged, instance.budget(), delta);
}

}  // namespace

AssignmentResult RunDivideConquer(const ProblemInstance& instance,
                                  double delta, int branching,
                                  const PairPoolOptions& pool_options,
                                  bool repair) {
  PairPoolOptions options = pool_options;
  options.include_predicted = true;
  const PairPool pool = BuildPairPool(instance, options);

  // Repair mode shrinks the root to the churn-reachable pair subgraph; a
  // bitmap filter keeps each task's per-span ascending id order intact.
  std::optional<std::vector<int32_t>> scope;
  if (repair) scope = ComputeRepairPairIds(instance, pool);
  std::vector<char> in_scope;
  if (scope.has_value()) {
    in_scope.assign(pool.size(), 0);
    for (const int32_t id : *scope) in_scope[static_cast<size_t>(id)] = 1;
  }

  Subproblem root;
  for (size_t j = 0; j < instance.tasks().size(); ++j) {
    const PairIdSpan ids = pool.PairsByTask(static_cast<int32_t>(j));
    if (ids.empty()) continue;
    const size_t before = root.pair_ids.size();
    for (const int32_t id : ids) {
      if (!in_scope.empty() && !in_scope[static_cast<size_t>(id)]) continue;
      root.pair_ids.push_back(id);
    }
    if (root.pair_ids.size() == before) continue;
    root.task_indices.push_back(static_cast<int32_t>(j));
  }

  // Same precedence as BuildPairPool: the assigner's own pool, then the
  // instance's (set by the simulator). Null runs the sequential solve.
  ThreadPool* exec = options.thread_pool != nullptr ? options.thread_pool
                                                    : instance.thread_pool();
  if (exec != nullptr && exec->num_threads() <= 1) exec = nullptr;

  std::vector<int32_t> selected =
      SolveRecursive(instance, pool, root, delta, branching, /*depth=*/0,
                     exec);

  // The merge phase does not re-check budgets after replacements; enforce
  // the hard constraint once at the top before emitting.
  if (!WithinBudgetUpperBound(pool, selected, instance.budget())) {
    selected = GreedySelect(pool, selected, instance.budget(), delta);
  }
  return EmitCurrentPairs(instance, pool, selected);
}

}  // namespace mqa

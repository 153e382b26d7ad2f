#include "core/divide_conquer.h"

#include <algorithm>

#include "common/logging.h"
#include "core/cost_model.h"
#include "core/decomposition.h"
#include "core/greedy.h"
#include "core/merge.h"
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
  return static_cast<double>(sub.num_pairs) /
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
// (instance, pool, sub) and writes its own results and stats slots, and
// the merge below consumes the slots in decomposition order on this
// thread — so the selection and the counts added to `stats` are
// byte-identical to the sequential loop for any thread count. Nested
// levels may fan out too: ThreadPool::ParallelFor composes (the caller
// always drains its own items).
std::vector<int32_t> SolveRecursive(const ProblemInstance& instance,
                                    const PairPool& pool,
                                    const Subproblem& problem, double delta,
                                    int branching, int depth,
                                    ThreadPool* exec, GreedyStats* stats) {
  MQA_CHECK(depth < 64) << "divide-and-conquer recursion too deep";
  // Spans only for nodes big enough to fan out — the same threshold as
  // the parallel schedule, so leaf-sized nodes stay span-free.
  MQA_TRACE_SPAN_IF(problem.num_tasks() >= kMinParallelTasksPerNode,
                    "dc/node", static_cast<int64_t>(problem.num_tasks()));
  if (problem.task_indices.empty()) return {};
  if (problem.num_tasks() == 1) {
    // Leaf: pick the best worker for the single task greedily (Fig. 9
    // line 8).
    return GreedySelect(pool, pool.PairsByTask(problem.task_indices[0]),
                        instance.budget(), delta, stats);
  }

  const int g =
      branching > 0
          ? branching
          : EstimateBestBranching(static_cast<int64_t>(problem.num_tasks()),
                                  SubproblemDegree(problem));
  const std::vector<Subproblem> subproblems =
      DecomposeTasks(instance, pool, problem.task_indices, g);

  std::vector<std::vector<int32_t>> results(subproblems.size());
  std::vector<GreedyStats> sub_stats(subproblems.size());
  const auto solve_one = [&](int64_t k) {
    const Subproblem& sub = subproblems[static_cast<size_t>(k)];
    GreedyStats* slot = &sub_stats[static_cast<size_t>(k)];
    results[static_cast<size_t>(k)] =
        sub.num_tasks() > 1
            ? SolveRecursive(instance, pool, sub, delta, branching, depth + 1,
                             exec, slot)
            : GreedySelect(pool, pool.PairsByTask(sub.task_indices[0]),
                           instance.budget(), delta, slot);
  };
  if (exec != nullptr && subproblems.size() > 1 &&
      problem.num_tasks() >= kMinParallelTasksPerNode) {
    exec->ParallelFor(static_cast<int64_t>(subproblems.size()), solve_one);
  } else {
    for (size_t k = 0; k < subproblems.size(); ++k) {
      solve_one(static_cast<int64_t>(k));
    }
  }
  for (const GreedyStats& sub : sub_stats) stats->Add(sub);

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
  return GreedySelect(pool, merged, instance.budget(), delta, stats);
}

}  // namespace

AssignmentResult RunDivideConquer(const ProblemInstance& instance,
                                  double delta, int branching) {
  const PairPool pool = BuildPairPool(instance);

  Subproblem root;
  for (size_t j = 0; j < instance.tasks().size(); ++j) {
    const PairIdSpan ids = pool.PairsByTask(static_cast<int32_t>(j));
    if (ids.empty()) continue;
    root.task_indices.push_back(static_cast<int32_t>(j));
    root.num_pairs += static_cast<int64_t>(ids.size());
  }

  // The instance's pool (set by the simulator); null runs the sequential
  // solve.
  ThreadPool* exec = instance.thread_pool();
  if (exec != nullptr && exec->num_threads() <= 1) exec = nullptr;

  GreedyStats stats;
  std::vector<int32_t> selected =
      SolveRecursive(instance, pool, root, delta, branching, /*depth=*/0,
                     exec, &stats);

  // The merge phase does not re-check budgets after replacements; enforce
  // the hard constraint once at the top before emitting (a rule the paper
  // does not state: docs/DEVIATIONS.md, row D14).
  if (!WithinBudgetUpperBound(pool, selected, instance.budget())) {
    selected = GreedySelect(pool, selected, instance.budget(), delta, &stats);
  }
  if (instance.greedy_stats() != nullptr) *instance.greedy_stats() = stats;
  return EmitCurrentPairs(pool, selected);
}

}  // namespace mqa

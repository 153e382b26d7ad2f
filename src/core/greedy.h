#ifndef MQA_CORE_GREEDY_H_
#define MQA_CORE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// The greedy selection loop shared by MQA_Greedy (paper Fig. 5), the
/// divide-and-conquer leaf case, and MQA_Budget_Constrained_Selection
/// (paper Fig. 9 lines 17-28), run with fresh state: no worker or task
/// used yet and a fresh BudgetTracker(budget, delta).
///
/// Each iteration builds the pruned candidate set S_p over the alive
/// pairs of `pair_ids` (worker and task unused, line-6 quick budget check
/// passed), selects the Eq. 10 best admissible pair, commits it against
/// the budget, and marks its endpoints used. Stops when no pair is
/// admissible. Returns the selected pair ids in selection order.
///
/// S_p is maintained incrementally (src/core/README.md, "Greedy
/// selection"): the pairs are sorted once in offer order and a min-cost
/// tree over that order yields each S_p in O(|S_p| log n). Dead pairs are
/// retired from the tree as they are met. The selections are identical to
/// rebuilding S_p from every alive pair each iteration
/// (tests/greedy_property_test.cc).
std::vector<int32_t> GreedySelect(const PairPool& pool,
                                  const std::vector<int32_t>& pair_ids,
                                  double budget, double delta);

/// Converts selected pool pairs into an AssignmentResult, keeping only
/// current-current pairs (paper Fig. 5 line 14) and accumulating their
/// fixed costs and qualities.
AssignmentResult EmitCurrentPairs(const ProblemInstance& instance,
                                  const PairPool& pool,
                                  const std::vector<int32_t>& selected);

/// MQA_Greedy end-to-end: build the pair pool over current and predicted
/// entities, run the greedy loop with a fresh budget tracker (two pots of
/// B, Eq. 9 confidence `delta`), and emit the current-current pairs.
/// `pool_options.include_predicted` is overridden to true; the remaining
/// fields pick the candidate-generation index (see valid_pairs.h).
/// With `repair` the greedy loop runs over the churn-reachable pair
/// subgraph only (core/repair.h) — a results-changing latency
/// optimization; full solve when no churn plan is available.
AssignmentResult RunGreedy(const ProblemInstance& instance, double delta,
                           const PairPoolOptions& pool_options = {},
                           bool repair = false);

}  // namespace mqa

#endif  // MQA_CORE_GREEDY_H_

#ifndef MQA_CORE_GREEDY_H_
#define MQA_CORE_GREEDY_H_

#include <cstdint>
#include <vector>

#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// The work one or more GreedySelect calls did: candidate sets S_p built
/// (iterations), their summed and largest sizes, and pairs retired dead
/// (on entry or when met in the min-cost tree). A pure function of the
/// inputs, like the selections themselves.
struct GreedyStats {
  int64_t iterations = 0;
  int64_t candidates = 0;
  int64_t max_candidates = 0;
  int64_t retired_pairs = 0;

  /// Folds in another call's counts: sums, and the max of max_candidates.
  void Add(const GreedyStats& other);
};

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
/// retired from the tree as they are met. Each selection uses one worker
/// and one task of the alive pairs, so the loop returns as soon as all
/// their workers or all their tasks are used, counting the pairs still in
/// the tree as retired without walking them. When all alive pairs share
/// one task or one worker, as in every D&C leaf, at most one selection is
/// possible: its S_p comes from a scan of the unsorted pairs, with no sort
/// and no tree. The selections are identical to rebuilding S_p from every
/// alive pair each iteration (tests/greedy_property_test.cc). When
/// `stats` is non-null the call's counts are added to it.
std::vector<int32_t> GreedySelect(const PairPool& pool, PairIdSpan pair_ids,
                                  double budget, double delta,
                                  GreedyStats* stats = nullptr);

/// Converts selected pool pairs into an AssignmentResult, keeping only
/// current-current pairs (paper Fig. 5 line 14) and accumulating their
/// fixed costs and qualities.
AssignmentResult EmitCurrentPairs(const PairPool& pool,
                                  const std::vector<int32_t>& selected);

/// MQA_Greedy end-to-end: build the pair pool over current and predicted
/// entities, run the greedy loop with a fresh budget tracker (two pots of
/// B, Eq. 9 confidence `delta`), and emit the current-current pairs. The
/// selection loop's counts go to the instance's greedy_stats sink when
/// one is wired.
AssignmentResult RunGreedy(const ProblemInstance& instance, double delta);

}  // namespace mqa

#endif  // MQA_CORE_GREEDY_H_

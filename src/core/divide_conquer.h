#ifndef MQA_CORE_DIVIDE_CONQUER_H_
#define MQA_CORE_DIVIDE_CONQUER_H_

#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// MQA divide-and-conquer (paper Fig. 9, procedure MQA_D&C):
///   1. estimate the branching factor g from the Appendix-C cost model
///      (or use `branching` when positive);
///   2. decompose the tasks into g subproblems (sweeping anchors +
///      nearest tasks);
///   3. recurse; a single-task subproblem is solved by the greedy core;
///   4. merge subproblem results with conflict resolution (MQA_Merge);
///   5. when the merged set's cost upper bound exceeds the budget, re-run
///      the greedy core restricted to the merged pairs
///      (MQA_Budget_Constrained_Selection).
/// Only current-current pairs are emitted. The counts of every greedy
/// call (leaves and reselections) go to the instance's greedy_stats sink
/// when one is wired.
AssignmentResult RunDivideConquer(const ProblemInstance& instance,
                                  double delta, int branching = 0);

}  // namespace mqa

#endif  // MQA_CORE_DIVIDE_CONQUER_H_

#include "core/random_assigner.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/budget.h"
#include "core/greedy.h"
#include "core/valid_pairs.h"

namespace mqa {

AssignmentResult RunRandom(const ProblemInstance& instance, double delta,
                           uint64_t seed) {
  const PairPool pool = BuildPairPool(instance);
  std::vector<int32_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng.engine());

  std::vector<char> worker_used(instance.workers().size(), 0);
  std::vector<char> task_used(instance.tasks().size(), 0);
  BudgetTracker budget(instance.budget(), delta);

  // Touches only indices and cost moments, never quality.
  std::vector<int32_t> selected;
  for (const int32_t id : order) {
    const PairRef pair = pool.pair(id);
    if (worker_used[static_cast<size_t>(pair.worker_index())] ||
        task_used[static_cast<size_t>(pair.task_index())]) {
      continue;
    }
    if (!budget.Admits(pair)) continue;
    budget.Commit(pair);
    worker_used[static_cast<size_t>(pair.worker_index())] = 1;
    task_used[static_cast<size_t>(pair.task_index())] = 1;
    selected.push_back(id);
  }
  return EmitCurrentPairs(pool, selected);
}

}  // namespace mqa

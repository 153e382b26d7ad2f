#include "core/exact_assigner.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/valid_pairs.h"
#include "quality/quality_model.h"

namespace mqa {

namespace {

struct SearchState {
  const ProblemInstance* instance = nullptr;
  const PairPool* pool = nullptr;
  std::vector<char> worker_used;
  std::vector<int32_t> chosen;  // pair ids along the current branch
  double cost = 0.0;
  double quality = 0.0;

  std::vector<int32_t> best_chosen;
  double best_quality = -1.0;
  double best_cost = 0.0;

  // Suffix bound: best_remaining[j] = sum over tasks >= j of the maximum
  // pair quality of the task (ignoring conflicts/budget) — an admissible
  // upper bound for branch-and-bound.
  std::vector<double> best_remaining;
};

void Search(SearchState* s, size_t task_index) {
  const size_t num_tasks = s->instance->num_current_tasks();
  if (task_index == num_tasks) {
    if (s->quality > s->best_quality ||
        (s->quality == s->best_quality && s->cost < s->best_cost)) {
      s->best_quality = s->quality;
      s->best_cost = s->cost;
      s->best_chosen = s->chosen;
    }
    return;
  }
  if (s->quality + s->best_remaining[task_index] < s->best_quality) {
    return;  // even the optimistic completion cannot beat the incumbent
  }

  // Option 1: leave this task unassigned.
  Search(s, task_index + 1);

  // Option 2: assign any free, affordable valid worker.
  for (const int32_t id : s->pool->PairsByTask(static_cast<int32_t>(task_index))) {
    const int32_t worker = s->pool->WorkerIndex(id);
    if (s->worker_used[static_cast<size_t>(worker)]) continue;
    const double c = s->pool->CostMean(id);
    if (s->cost + c > s->instance->budget() + 1e-9) continue;
    const double q = s->pool->QualityMean(id);

    s->worker_used[static_cast<size_t>(worker)] = 1;
    s->chosen.push_back(id);
    s->cost += c;
    s->quality += q;
    Search(s, task_index + 1);
    s->quality -= q;
    s->cost -= c;
    s->chosen.pop_back();
    s->worker_used[static_cast<size_t>(worker)] = 0;
  }
}

}  // namespace

Result<AssignmentResult> RunExact(const ProblemInstance& instance,
                                  int max_entities) {
  if (instance.num_current_tasks() > static_cast<size_t>(max_entities) ||
      instance.num_current_workers() > static_cast<size_t>(max_entities)) {
    return Status::InvalidArgument(
        "exact solver limited to " + std::to_string(max_entities) +
        " workers/tasks (MQA is NP-hard)");
  }

  // The oracle only sees current pairs.
  const PairPool pool = BuildPairPool(instance, /*include_predicted=*/false);
  SearchState state;
  state.instance = &instance;
  state.pool = &pool;
  state.worker_used.assign(instance.workers().size(), 0);
  state.best_quality = 0.0;

  const size_t num_tasks = instance.num_current_tasks();
  state.best_remaining.assign(num_tasks + 1, 0.0);
  for (size_t j = num_tasks; j-- > 0;) {
    double best_q = 0.0;
    for (const int32_t id : pool.PairsByTask(static_cast<int32_t>(j))) {
      best_q = std::max(best_q, pool.QualityMean(id));
    }
    state.best_remaining[j] = state.best_remaining[j + 1] + best_q;
  }

  Search(&state, 0);

  AssignmentResult result;
  for (const int32_t id : state.best_chosen) {
    result.pairs.push_back({pool.WorkerIndex(id), pool.TaskIndex(id)});
  }
  result.total_quality = state.best_quality;
  result.total_cost = state.best_cost;
  return result;
}

}  // namespace mqa

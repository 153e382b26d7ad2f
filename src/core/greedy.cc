#include "core/greedy.h"

#include <algorithm>
#include <limits>

#include "core/budget.h"
#include "core/selection.h"
#include "obs/trace.h"

namespace mqa {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Minimum cost_mean over the positions of the greedy offer order, as a
// perfect binary tree with the leaves at [leaves_, 2 * leaves_). Retired
// positions (and the padding past the last pair) hold +inf, so no query
// finds them again.
class MinCostTree {
 public:
  MinCostTree(const PairPool& pool, const std::vector<int32_t>& order) {
    while (leaves_ < order.size()) leaves_ *= 2;
    node_.assign(2 * leaves_, kInf);
    for (size_t k = 0; k < order.size(); ++k) {
      node_[leaves_ + k] = pool.CostMean(order[k]);
    }
    for (size_t v = leaves_ - 1; v > 0; --v) {
      node_[v] = std::min(node_[2 * v], node_[2 * v + 1]);
    }
  }

  bool retired(size_t pos) const { return node_[leaves_ + pos] == kInf; }

  void Retire(size_t pos) {
    size_t v = leaves_ + pos;
    node_[v] = kInf;
    for (v /= 2; v > 0; v /= 2) {
      node_[v] = std::min(node_[2 * v], node_[2 * v + 1]);
    }
  }

  // First position >= `from` whose cost is below `bound`; -1 when none.
  int64_t FirstBelow(size_t from, double bound) const {
    if (from >= leaves_) return -1;
    size_t v = leaves_ + from;
    do {
      // A left child's parent covers the same start: climb as far as
      // possible, then test that whole subtree at once.
      while (v % 2 == 0) v /= 2;
      if (node_[v] < bound) {
        while (v < leaves_) {
          v *= 2;
          if (!(node_[v] < bound)) ++v;
        }
        return static_cast<int64_t>(v - leaves_);
      }
      ++v;
    } while ((v & (v - 1)) != 0);  // wrapped past the last subtree
    return -1;
  }

 private:
  size_t leaves_ = 1;
  std::vector<double> node_;
};

// True when an S_p member at or after `run_begin` (the members with the
// same quality and cost means as `id`) also has the same cost and quality
// variances: `id` is then a moment duplicate and stays out of S_p (the
// weak-dominance rule, docs/DEVIATIONS.md row D4; its pair predicate is
// WeaklyDominatesForPruning in tests/comparators_reference.h).
bool HasMomentTwin(const PairPool& pool, int32_t id,
                   const std::vector<int32_t>& sp, size_t run_begin) {
  for (size_t k = run_begin; k < sp.size(); ++k) {
    if (pool.CostVariance(sp[k]) == pool.CostVariance(id) &&
        pool.Quality(sp[k]).variance() == pool.Quality(id).variance()) {
      return true;
    }
  }
  return false;
}

// An alive pair and its quality mean, read once.
struct Key {
  double quality;
  int32_t id;
};

// The offer order of paper Fig. 5 lines 4-10: quality mean descending,
// then cost mean ascending, then id.
bool Precedes(const PairPool& pool, const Key& a, const Key& b) {
  if (a.quality != b.quality) return a.quality > b.quality;
  const double ca = pool.CostMean(a.id);
  const double cb = pool.CostMean(b.id);
  if (ca != cb) return ca < cb;
  return a.id < b.id;
}

// True when all `keys` share one task or all share one worker: the first
// selection then uses that endpoint up, so at most one S_p is built.
bool SharesOneEndpoint(const PairPool& pool, const std::vector<Key>& keys) {
  if (keys.empty()) return true;
  const int32_t worker = pool.WorkerIndex(keys[0].id);
  const int32_t task = pool.TaskIndex(keys[0].id);
  bool one_worker = true;
  bool one_task = true;
  for (const Key& key : keys) {
    one_worker = one_worker && pool.WorkerIndex(key.id) == worker;
    one_task = one_task && pool.TaskIndex(key.id) == task;
    if (!one_worker && !one_task) return false;
  }
  return true;
}

// The one S_p of a call whose `keys` share an endpoint, by scanning the
// unsorted keys: no sort and no tree. Each round takes the first key in
// offer order and its tie run (the keys with the same quality and cost
// means, in id order, minus moment twins), then keeps only the keys
// strictly cheaper than it. S_p comes out in offer order, as the tree
// walk emits it: SelectBestPair sums the Eq. 10 logarithms in that order.
// Consumes `keys`.
void ScanCandidateSet(const PairPool& pool, std::vector<Key>* keys,
                      std::vector<int32_t>* sp) {
  std::vector<int32_t> run;
  while (!keys->empty()) {
    const Key first = *std::min_element(
        keys->begin(), keys->end(),
        [&pool](const Key& a, const Key& b) { return Precedes(pool, a, b); });
    const double min_cost = pool.CostMean(first.id);
    run.clear();
    size_t kept = 0;
    for (size_t k = 0; k < keys->size(); ++k) {
      const Key key = (*keys)[k];
      const double cost = pool.CostMean(key.id);
      if (cost == min_cost && key.quality == first.quality) {
        run.push_back(key.id);
      } else if (cost < min_cost) {
        (*keys)[kept++] = key;
      }
    }
    keys->resize(kept);
    std::sort(run.begin(), run.end());
    const size_t run_begin = sp->size();
    for (const int32_t id : run) {
      if (!HasMomentTwin(pool, id, *sp, run_begin)) sp->push_back(id);
    }
  }
}

// Lines 11-12: the Eq. 9 + Eq. 10 selection from S_p, counted in
// `counts`; -1 when no member of S_p is admissible.
int32_t SelectCounted(const PairPool& pool, const std::vector<int32_t>& sp,
                      const BudgetTracker& tracker, GreedyStats* counts) {
  ++counts->iterations;
  counts->candidates += static_cast<int64_t>(sp.size());
  counts->max_candidates =
      std::max(counts->max_candidates, static_cast<int64_t>(sp.size()));
  return SelectBestPair(pool, sp, tracker);
}

}  // namespace

void GreedyStats::Add(const GreedyStats& other) {
  iterations += other.iterations;
  candidates += other.candidates;
  max_candidates = std::max(max_candidates, other.max_candidates);
  retired_pairs += other.retired_pairs;
}

std::vector<int32_t> GreedySelect(const PairPool& pool, PairIdSpan pair_ids,
                                  double budget, double delta,
                                  GreedyStats* stats) {
  // Span only above a real working set: GreedySelect is also the D&C leaf
  // solver, and a span per leaf would explode the trace.
  MQA_TRACE_SPAN_IF(pair_ids.size() >= 1024, "greedy/select",
                    static_cast<int64_t>(pair_ids.size()));
  BudgetTracker tracker(budget, delta);

  // The alive pairs. Nothing is used yet, so only the quick budget check
  // rejects, and the pairs it rejects never read their quality.
  std::vector<Key> keys;
  keys.reserve(pair_ids.size());
  for (const int32_t id : pair_ids) {
    if (!tracker.QuickReject(pool.pair(id))) {
      keys.push_back({pool.QualityMean(id), id});
    }
  }
  GreedyStats counts;
  counts.retired_pairs = static_cast<int64_t>(pair_ids.size() - keys.size());
  std::vector<int32_t> selected;
  std::vector<int32_t> sp;

  if (SharesOneEndpoint(pool, keys)) {
    // A D&C leaf: one S_p, and a selection leaves no pair alive.
    ScanCandidateSet(pool, &keys, &sp);
    const int32_t best =
        sp.empty() ? -1 : SelectCounted(pool, sp, tracker, &counts);
    if (best >= 0) {
      selected.push_back(best);
      counts.retired_pairs = static_cast<int64_t>(pair_ids.size());
    }
    if (stats != nullptr) stats->Add(counts);
    return selected;
  }

  std::vector<char> worker_used(pool.num_workers(), 0);
  std::vector<char> task_used(pool.num_tasks(), 0);
  // The distinct workers and tasks among the alive pairs, counted by
  // flagging them in the used arrays, which are then cleared. Each
  // selection uses one of each.
  int64_t workers_left = 0;
  int64_t tasks_left = 0;
  for (const Key& key : keys) {
    char& worker = worker_used[static_cast<size_t>(pool.WorkerIndex(key.id))];
    char& task = task_used[static_cast<size_t>(pool.TaskIndex(key.id))];
    workers_left += !worker;
    tasks_left += !task;
    worker = task = 1;
  }
  std::fill(worker_used.begin(), worker_used.end(), 0);
  std::fill(task_used.begin(), task_used.end(), 0);
  // Once dead, a pair stays dead: used flags are only ever set and each
  // budget pot's spend only grows.
  const auto dead = [&](int32_t id) {
    const PairRef pair = pool.pair(id);
    return worker_used[static_cast<size_t>(pair.worker_index())] ||
           task_used[static_cast<size_t>(pair.task_index())] ||
           tracker.QuickReject(pair);
  };

  // The alive pairs in offer order. The keys are freed before the tree is
  // allocated, so the tree can reuse their memory.
  std::vector<int32_t> order;
  order.reserve(keys.size());
  std::sort(keys.begin(), keys.end(), [&pool](const Key& a, const Key& b) {
    return Precedes(pool, a, b);
  });
  for (const Key& key : keys) order.push_back(key.id);
  std::vector<Key>().swap(keys);
  MinCostTree tree(pool, order);

  while (true) {
    // Lines 4-10: the candidate set S_p. In offer order a newcomer never
    // prunes an earlier pair, and Lemma 4.1 dominance implies dominance
    // of the means (every mean lies within its bounds), so S_p holds each
    // alive pair cheaper than all earlier members, plus its tie run.
    sp.clear();
    double min_cost = kInf;
    size_t from = 0;
    for (int64_t hit; (hit = tree.FirstBelow(from, min_cost)) >= 0;) {
      const int32_t id = order[static_cast<size_t>(hit)];
      from = static_cast<size_t>(hit) + 1;
      if (dead(id)) {
        tree.Retire(static_cast<size_t>(hit));
        ++counts.retired_pairs;
        continue;
      }
      min_cost = pool.CostMean(id);
      const size_t run_begin = sp.size();
      sp.push_back(id);
      // The tie run: pairs with the same quality and cost means follow
      // contiguously, and each distinct pair of variances keeps its first
      // alive pair.
      for (; from < order.size(); ++from) {
        const int32_t tie = order[from];
        if (pool.CostMean(tie) != min_cost ||
            pool.QualityMean(tie) != pool.QualityMean(id)) {
          break;
        }
        if (tree.retired(from)) continue;
        if (dead(tie)) {
          tree.Retire(from);
          ++counts.retired_pairs;
        } else if (!HasMomentTwin(pool, tie, sp, run_begin)) {
          sp.push_back(tie);
        }
      }
    }
    if (sp.empty()) break;
    const int32_t best = SelectCounted(pool, sp, tracker, &counts);
    if (best < 0) break;

    const PairRef chosen = pool.pair(best);
    tracker.Commit(chosen);
    worker_used[static_cast<size_t>(chosen.worker_index())] = 1;
    task_used[static_cast<size_t>(chosen.task_index())] = 1;
    selected.push_back(best);
    // Once every worker or every task is used no pair is alive: count
    // them all retired rather than walking the tree to retire each.
    --workers_left;
    --tasks_left;
    if (workers_left == 0 || tasks_left == 0) {
      counts.retired_pairs = static_cast<int64_t>(pair_ids.size());
      break;
    }
  }

  if (stats != nullptr) stats->Add(counts);
  return selected;
}

AssignmentResult EmitCurrentPairs(const PairPool& pool,
                                  const std::vector<int32_t>& selected) {
  AssignmentResult result;
  for (const int32_t id : selected) {
    const PairRef pair = pool.pair(id);
    if (pair.involves_predicted()) continue;  // line 14
    result.pairs.push_back({pair.worker_index(), pair.task_index()});
    result.total_cost += pair.cost_mean();
    result.total_quality += pair.quality_mean();
  }
  return result;
}

AssignmentResult RunGreedy(const ProblemInstance& instance, double delta) {
  const PairPool pool = BuildPairPool(instance);

  std::vector<int32_t> all_ids(pool.size());
  for (size_t i = 0; i < all_ids.size(); ++i) {
    all_ids[i] = static_cast<int32_t>(i);
  }

  GreedyStats stats;
  const std::vector<int32_t> selected =
      GreedySelect(pool, all_ids, instance.budget(), delta, &stats);
  if (instance.greedy_stats() != nullptr) *instance.greedy_stats() = stats;
  return EmitCurrentPairs(pool, selected);
}

}  // namespace mqa

#include "core/greedy.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/budget.h"
#include "core/repair.h"
#include "core/selection.h"
#include "obs/metrics.h"
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
// variances: `id` is then a moment duplicate and stays out of S_p
// (WeaklyDominatesForPruning, core/comparators.h).
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

}  // namespace

std::vector<int32_t> GreedySelect(const PairPool& pool,
                                  const std::vector<int32_t>& pair_ids,
                                  double budget, double delta) {
  // Span only above a real working set: GreedySelect is also the D&C leaf
  // solver, and a span per leaf would explode the trace.
  MQA_TRACE_SPAN_IF(pair_ids.size() >= 1024, "greedy/select",
                    static_cast<int64_t>(pair_ids.size()));
  BudgetTracker tracker(budget, delta);
  std::vector<char> worker_used(pool.num_workers(), 0);
  std::vector<char> task_used(pool.num_tasks(), 0);
  // Once dead, a pair stays dead: used flags are only ever set and each
  // budget pot's spend only grows.
  const auto dead = [&](int32_t id) {
    const PairRef pair = pool.pair(id);
    return worker_used[static_cast<size_t>(pair.worker_index())] ||
           task_used[static_cast<size_t>(pair.task_index())] ||
           tracker.QuickReject(pair);
  };

  // The offer order of paper Fig. 5 lines 4-10: quality mean descending,
  // then cost mean ascending, then id. Pairs the quick budget check
  // already rejects are dropped first and never read their quality.
  // Each quality mean is read once into a sort key; the keys are freed
  // before the tree is allocated, so the tree can reuse their memory.
  std::vector<int32_t> order;
  order.reserve(pair_ids.size());
  {
    struct Key {
      double quality;
      int32_t id;
    };
    std::vector<Key> keys;
    keys.reserve(pair_ids.size());
    for (const int32_t id : pair_ids) {
      if (!dead(id)) keys.push_back({pool.QualityMean(id), id});
    }
    std::sort(keys.begin(), keys.end(), [&pool](const Key& a, const Key& b) {
      if (a.quality != b.quality) return a.quality > b.quality;
      const double ca = pool.CostMean(a.id);
      const double cb = pool.CostMean(b.id);
      if (ca != cb) return ca < cb;
      return a.id < b.id;
    });
    for (const Key& key : keys) order.push_back(key.id);
  }
  MinCostTree tree(pool, order);

  // Algorithmic counters, accumulated locally and recorded once.
  int64_t iterations = 0;
  int64_t candidates = 0;
  size_t max_candidates = 0;
  int64_t retired = static_cast<int64_t>(pair_ids.size() - order.size());
  int64_t cap_hits = 0;

  std::vector<int32_t> selected;
  std::vector<int32_t> sp;
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
        ++retired;
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
          ++retired;
        } else if (!HasMomentTwin(pool, tie, sp, run_begin)) {
          sp.push_back(tie);
        }
      }
    }
    if (sp.empty()) break;
    ++iterations;
    candidates += static_cast<int64_t>(sp.size());
    max_candidates = std::max(max_candidates, sp.size());

    // Lines 11-12: Eq. 9 + Eq. 10 selection.
    bool capped = false;
    const int32_t best = SelectBestPair(pool, sp, tracker, &capped);
    if (capped) ++cap_hits;
    if (best < 0) break;

    const PairRef chosen = pool.pair(best);
    tracker.Commit(chosen);
    worker_used[static_cast<size_t>(chosen.worker_index())] = 1;
    task_used[static_cast<size_t>(chosen.task_index())] = 1;
    selected.push_back(best);
  }

  MQA_METRIC_COUNT("mqa.greedy.iterations", iterations);
  MQA_METRIC_COUNT("mqa.greedy.candidates", candidates);
  MQA_METRIC_RECORD("mqa.greedy.max_candidates",
                    static_cast<double>(max_candidates));
  MQA_METRIC_COUNT("mqa.greedy.retired_pairs", retired);
  MQA_METRIC_COUNT("mqa.greedy.eq10_cap_hits", cap_hits);
  return selected;
}

AssignmentResult EmitCurrentPairs(const ProblemInstance& instance,
                                  const PairPool& pool,
                                  const std::vector<int32_t>& selected) {
  (void)instance;
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

AssignmentResult RunGreedy(const ProblemInstance& instance, double delta,
                           const PairPoolOptions& pool_options, bool repair) {
  PairPoolOptions options = pool_options;
  options.include_predicted = true;
  const PairPool pool = BuildPairPool(instance, options);

  std::vector<int32_t> ids;
  std::optional<std::vector<int32_t>> scope;
  if (repair) scope = ComputeRepairPairIds(instance, pool);
  if (scope.has_value()) {
    ids = std::move(*scope);
  } else {
    ids.resize(pool.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  }

  const std::vector<int32_t> selected =
      GreedySelect(pool, ids, instance.budget(), delta);
  return EmitCurrentPairs(instance, pool, selected);
}

}  // namespace mqa

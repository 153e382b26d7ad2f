#ifndef MQA_TESTS_GREEDY_REFERENCE_H_
#define MQA_TESTS_GREEDY_REFERENCE_H_

// The straightforward greedy selection loop, kept as the reference the
// incremental GreedySelect (core/greedy.h) must reproduce: every iteration
// compacts the active pairs and offers each survivor again to a fresh
// candidate set. Header-only because each test binary links only itself
// and the mqa library.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/budget.h"
#include "core/comparators.h"
#include "core/pair_pool.h"
#include "core/selection.h"

namespace mqa {
namespace testing_util {

/// The per-iteration candidate set S_p of the greedy algorithm (paper
/// Fig. 5 lines 4-10): a set of mutually non-dominated pairs maintained
/// under the Lemma 4.1 bound dominance and Lemma 4.2 probabilistic
/// dominance prunings.
///
/// Offer() implements lines 7-10: a pair enters only if no present
/// candidate prunes it, and on entry it evicts the candidates it prunes.
class CandidateSet {
 public:
  /// `pool` is the backing columnar pool; the set stores pair ids into it.
  explicit CandidateSet(const PairPool& pool) : pool_(pool) {}

  /// Offers pair `pair_id` to the set. Returns true when the pair was
  /// admitted (it may still be evicted by a later, better pair).
  bool Offer(int32_t pair_id) {
    const PairRef pair = pool_.pair(pair_id);

    // Fast path: the cheapest candidate seen so far is the most likely
    // pruner.
    if (min_cost_id_ >= 0) {
      const PairRef cheapest = pool_.pair(min_cost_id_);
      if (Dominates(cheapest, pair) ||
          WeaklyDominatesForPruning(cheapest, pair)) {
        return false;
      }
    }

    // Lines 7-8: reject when any present candidate prunes the newcomer
    // (Lemma 4.1 bound dominance or the weak Lemma 4.2 variant; see
    // comparators.h).
    for (const int32_t cand_id : ids_) {
      const PairRef cand = pool_.pair(cand_id);
      if (Dominates(cand, pair) || WeaklyDominatesForPruning(cand, pair)) {
        return false;
      }
    }

    // Line 10: the newcomer evicts candidates it prunes.
    size_t kept = 0;
    for (size_t k = 0; k < ids_.size(); ++k) {
      const PairRef cand = pool_.pair(ids_[k]);
      if (Dominates(pair, cand) || WeaklyDominatesForPruning(pair, cand)) {
        continue;  // evicted
      }
      ids_[kept++] = ids_[k];
    }
    ids_.resize(kept);
    ids_.push_back(pair_id);

    // Refresh the cheapest-candidate cache (eviction may have removed it).
    min_cost_id_ = ids_[0];
    for (const int32_t id : ids_) {
      if (pool_.CostMean(id) < pool_.CostMean(min_cost_id_)) {
        min_cost_id_ = id;
      }
    }
    return true;
  }

  /// Ids of the surviving candidate pairs.
  const std::vector<int32_t>& candidates() const { return ids_; }

  bool empty() const { return ids_.empty(); }
  size_t size() const { return ids_.size(); }
  void Clear() {
    ids_.clear();
    min_cost_id_ = -1;
  }

 private:
  const PairPool& pool_;
  std::vector<int32_t> ids_;

  // Candidate with the lowest expected cost — the O(1) fast-path pruner.
  int32_t min_cost_id_ = -1;
};

/// What the reference loop selected, and the work it saw: the number of
/// candidate sets built and their summed sizes (GreedySelect's
/// mqa.greedy.iterations and mqa.greedy.candidates counters).
struct ReferenceSelection {
  std::vector<int32_t> selected;
  int64_t iterations = 0;
  int64_t candidates = 0;
};

/// GreedySelect's contract, computed the direct way: sort the pairs of
/// `pair_ids` by (quality mean desc, cost mean asc, id), then each
/// iteration drop the pairs whose worker or task is used or that fail the
/// quick budget check, offer every survivor to a fresh CandidateSet, and
/// commit the Eq. 10 best admissible candidate. O(iterations x pairs).
inline ReferenceSelection ReferenceGreedySelect(
    const PairPool& pool, const std::vector<int32_t>& pair_ids,
    double budget, double delta) {
  std::vector<char> worker_used(pool.num_workers(), 0);
  std::vector<char> task_used(pool.num_tasks(), 0);
  BudgetTracker tracker(budget, delta);
  ReferenceSelection result;

  std::vector<int32_t> active = pair_ids;
  std::sort(active.begin(), active.end(), [&pool](int32_t a, int32_t b) {
    const double qa = pool.QualityMean(a);
    const double qb = pool.QualityMean(b);
    if (qa != qb) return qa > qb;
    const double ca = pool.CostMean(a);
    const double cb = pool.CostMean(b);
    if (ca != cb) return ca < cb;
    return a < b;
  });
  CandidateSet sp(pool);

  while (!active.empty()) {
    size_t kept = 0;
    for (size_t k = 0; k < active.size(); ++k) {
      const PairRef pair = pool.pair(active[k]);
      if (worker_used[static_cast<size_t>(pair.worker_index())] ||
          task_used[static_cast<size_t>(pair.task_index())] ||
          tracker.QuickReject(pair)) {
        continue;
      }
      active[kept++] = active[k];
    }
    active.resize(kept);
    if (active.empty()) break;

    sp.Clear();
    for (const int32_t id : active) sp.Offer(id);
    ++result.iterations;
    result.candidates += static_cast<int64_t>(sp.size());

    const int32_t best = SelectBestPair(pool, sp.candidates(), tracker);
    if (best < 0) break;

    const PairRef chosen = pool.pair(best);
    tracker.Commit(chosen);
    worker_used[static_cast<size_t>(chosen.worker_index())] = 1;
    task_used[static_cast<size_t>(chosen.task_index())] = 1;
    result.selected.push_back(best);
  }
  return result;
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_GREEDY_REFERENCE_H_

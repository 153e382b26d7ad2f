#ifndef MQA_TESTS_MERGE_REFERENCE_H_
#define MQA_TESTS_MERGE_REFERENCE_H_

// The hash-table MergeResults, kept as the reference the flat-array
// MergeResults (core/merge.h) must reproduce, order included. It is the
// former production code apart from its case counters.
// Header-only because each test binary links only itself and the mqa
// library.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/comparators.h"
#include "core/pair_pool.h"

namespace mqa {
namespace testing_util {

/// How the conflicts of ReferenceMergeResults calls were resolved: which
/// side won, and whether the loser's task found a replacement worker or
/// was dropped.
struct MergeCases {
  int64_t incoming_wins = 0;
  int64_t merged_wins = 0;
  int64_t replaced = 0;
  int64_t dropped = 0;
};

// True when pair `a` should win a head-to-head conflict against `b`.
inline bool PairBeats(const PairRef& a, const PairRef& b) {
  if (Dominates(a, b)) return true;
  if (Dominates(b, a)) return false;
  const double pr = ProbQualityGreater(a, b);
  if (pr > 0.5) return true;
  if (pr < 0.5) return false;
  return a.cost_mean() <= b.cost_mean();
}

// Best replacement pair for `task` whose worker is not in `used_workers`;
// -1 when none exists.
inline int32_t BestAvailablePairForTask(
    const PairPool& pool, int32_t task,
    const std::unordered_set<int32_t>& used_workers) {
  int32_t best = -1;
  for (const int32_t id : pool.PairsByTask(task)) {
    if (used_workers.count(pool.WorkerIndex(id)) > 0) continue;
    if (best < 0) {
      best = id;
      continue;
    }
    const double q_cand = pool.QualityMean(id);
    const double q_cur = pool.QualityMean(best);
    if (q_cand > q_cur ||
        (q_cand == q_cur && pool.CostMean(id) < pool.CostMean(best))) {
      best = id;
    }
  }
  return best;
}

/// MergeResults's contract (paper Fig. 8) over hash containers rebuilt
/// for every call. The conflicts are counted into `cases`.
inline void ReferenceMergeResults(const PairPool& pool,
                                  std::vector<int32_t>* merged,
                                  const std::vector<int32_t>& incoming,
                                  MergeCases* cases) {
  // Index the accumulated assignment by worker.
  std::unordered_map<int32_t, size_t> merged_by_worker;
  std::unordered_set<int32_t> used_workers;
  for (size_t pos = 0; pos < merged->size(); ++pos) {
    const int32_t worker = pool.WorkerIndex((*merged)[pos]);
    merged_by_worker[worker] = pos;
    used_workers.insert(worker);
  }
  std::vector<int32_t> incoming_mut = incoming;
  for (const int32_t id : incoming_mut) {
    used_workers.insert(pool.WorkerIndex(id));
  }

  // Conflicting workers, most expensive incoming pair first (Fig. 8
  // line 3).
  std::vector<size_t> conflict_positions;
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    if (merged_by_worker.count(pool.WorkerIndex(incoming_mut[pos])) > 0) {
      conflict_positions.push_back(pos);
    }
  }
  std::sort(conflict_positions.begin(), conflict_positions.end(),
            [&](size_t a, size_t b) {
              const double ca = pool.CostMean(incoming_mut[a]);
              const double cb = pool.CostMean(incoming_mut[b]);
              if (ca != cb) return ca > cb;
              return a < b;
            });

  std::vector<char> drop_incoming(incoming_mut.size(), 0);
  for (const size_t pos : conflict_positions) {
    const int32_t incoming_id = incoming_mut[pos];
    const PairRef pair_s = pool.pair(incoming_id);
    const auto it = merged_by_worker.find(pair_s.worker_index());
    MQA_CHECK(it != merged_by_worker.end()) << "conflict disappeared";
    const size_t merged_pos = it->second;
    const int32_t merged_id = (*merged)[merged_pos];
    const PairRef pair_m = pool.pair(merged_id);

    if (PairBeats(pair_s, pair_m)) {
      ++cases->incoming_wins;
      // Incoming wins: reassign the merged pair's task to another worker.
      const int32_t repl =
          BestAvailablePairForTask(pool, pair_m.task_index(), used_workers);
      merged_by_worker.erase(it);
      if (repl >= 0) {
        ++cases->replaced;
        (*merged)[merged_pos] = repl;
        merged_by_worker[pool.WorkerIndex(repl)] = merged_pos;
        used_workers.insert(pool.WorkerIndex(repl));
      } else {
        ++cases->dropped;
        // No replacement: the task goes unassigned this instance.
        (*merged)[merged_pos] = -1;
      }
    } else {
      ++cases->merged_wins;
      // Merged wins: reassign the incoming pair's task.
      const int32_t repl =
          BestAvailablePairForTask(pool, pair_s.task_index(), used_workers);
      if (repl >= 0) {
        ++cases->replaced;
        incoming_mut[pos] = repl;
        used_workers.insert(pool.WorkerIndex(repl));
      } else {
        ++cases->dropped;
        drop_incoming[pos] = 1;
      }
    }
  }

  // Union (Fig. 8 line 10), skipping dropped entries.
  merged->erase(std::remove(merged->begin(), merged->end(), -1),
                merged->end());
  for (size_t pos = 0; pos < incoming_mut.size(); ++pos) {
    if (!drop_incoming[pos]) merged->push_back(incoming_mut[pos]);
  }
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_MERGE_REFERENCE_H_

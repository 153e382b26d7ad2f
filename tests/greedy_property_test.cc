// Differential property test: the incremental GreedySelect (core/greedy.h)
// returns exactly the selections of the rebuild-every-iteration reference
// loop (tests/greedy_reference.h) on random hand-built pools, and builds
// as many candidate sets S_p of the same summed size (its GreedyStats
// counts against the reference's tallies). A spurious or missing S_p
// member rarely changes the Eq. 10 winner, so the sizes are what catch
// it. It also counts every pair retired exactly when the reference ran
// out of alive pairs. The pools are drawn to hit every pruning and tie
// rule: equal (quality, cost) means with equal or differing variances,
// exact moment duplicates, one quality distribution shared by many
// predicted pairs (like the global Case-3 entry), both budget pots, pairs
// the quick budget check rejects on entry, candidate sets of up to 70
// pairs, and pair-id subsets shaped like the D&C leaves, nodes and budget
// reselections. Both of GreedySelect's shortcuts come up: the scan that
// builds the one S_p of a call whose alive pairs share an endpoint, and
// the early return once every worker or every task is used.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/budget.h"
#include "core/greedy.h"
#include "tests/greedy_reference.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::ReferenceGreedySelect;

// Mean on a coarse grid, variance from {0, 0.1, 0.2} and bounds from tight
// to wide, so equal means with differing variances are common and Lemma
// 4.1 bound dominance fires on the tight ones.
Uncertain Spread(Rng* rng, double mean) {
  const double variance = 0.1 * static_cast<double>(rng->UniformInt(0, 2));
  const double below = 0.25 * static_cast<double>(rng->UniformInt(0, 4));
  const double above = 0.25 * static_cast<double>(rng->UniformInt(0, 4));
  return Uncertain(mean, variance, std::max(0.0, mean - below), mean + above);
}

PairPool DrawPool(Rng* rng) {
  const Uncertain shared_quality(2.0, 0.25, 1.0, 3.0);
  // Staircases: quality and cost rise together, so no pair prunes another
  // and S_p holds up to 70 pairs, far past any S_p measured on a real run
  // (at most 19). The diagonal one gives each pair its own worker and
  // task; the single-task one is a D&C leaf, whose S_p comes from the
  // scan.
  const bool diagonal = rng->Bernoulli(0.05);
  const bool one_task = !diagonal && rng->Bernoulli(0.05);
  const bool staircase = diagonal || one_task;
  const int workers = staircase ? 70 : static_cast<int>(rng->UniformInt(1, 9));
  const int tasks = diagonal   ? 70
                    : one_task ? 1
                               : static_cast<int>(rng->UniformInt(1, 9));
  const double density = staircase ? 0.0 : 0.3 * rng->UniformInt(1, 3);

  PairPoolBuilder builder(static_cast<size_t>(workers),
                          static_cast<size_t>(tasks));
  std::vector<CandidatePair> added;
  const auto add = [&](const CandidatePair& p) {
    added.push_back(p);
    builder.Add(p);
  };
  if (staircase) {
    for (int k = 0; k < workers; ++k) {
      CandidatePair p;
      p.worker_index = k;
      p.task_index = diagonal ? k : 0;
      p.cost = Uncertain::Fixed(0.5 + 0.01 * k);
      p.quality = Uncertain::Fixed(1.0 + 0.02 * k);
      add(p);
    }
  }
  for (int w = 0; w < workers; ++w) {
    for (int t = 0; t < tasks; ++t) {
      if (!rng->Bernoulli(density)) continue;
      CandidatePair p;
      p.worker_index = w;
      p.task_index = t;
      if (!added.empty() && rng->Bernoulli(0.15)) {
        // An exact moment duplicate of an earlier pair.
        const CandidatePair& twin = added[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(added.size()) - 1))];
        p.cost = twin.cost;
        p.quality = twin.quality;
        p.involves_predicted = twin.involves_predicted;
        p.existence = twin.existence;
      } else if (rng->Bernoulli(0.5)) {
        p.cost = Uncertain::Fixed(0.5 * static_cast<double>(
                                            rng->UniformInt(1, 8)));
        p.quality = Uncertain::Fixed(0.5 * static_cast<double>(
                                               rng->UniformInt(2, 8)));
      } else {
        p.involves_predicted = true;
        p.cost = Spread(rng, 0.5 * static_cast<double>(rng->UniformInt(1, 8)));
        p.quality = rng->Bernoulli(0.3)
                        ? shared_quality
                        : Spread(rng, 0.5 * static_cast<double>(
                                               rng->UniformInt(2, 8)));
        p.existence = rng->Uniform(0.3, 1.0);
      }
      add(p);
    }
  }
  return std::move(builder).Build();
}

// The pair-id lists GreedySelect is called with: the whole pool (in any
// order), a D&C leaf (one task's pairs), one worker's pairs, a D&C node (a
// task subset's pairs, task by task) or a budget reselection (a merged
// selection: at most one pair per worker and per task).
std::vector<int32_t> DrawPairIds(Rng* rng, const PairPool& pool) {
  const auto num_workers = static_cast<int32_t>(pool.num_workers());
  const auto num_tasks = static_cast<int32_t>(pool.num_tasks());
  std::vector<int32_t> ids;
  switch (rng->UniformInt(0, 4)) {
    case 0:
      for (size_t i = 0; i < pool.size(); ++i) {
        ids.push_back(static_cast<int32_t>(i));
      }
      std::shuffle(ids.begin(), ids.end(), rng->engine());
      break;
    case 1: {
      const int64_t t = rng->UniformInt(0, num_tasks - 1);
      for (const int32_t id : pool.PairsByTask(static_cast<int32_t>(t))) {
        ids.push_back(id);
      }
      break;
    }
    case 2: {
      const int64_t w = rng->UniformInt(0, num_workers - 1);
      ids = testing_util::PairIdsOfWorker(pool, static_cast<int32_t>(w));
      break;
    }
    case 3:
      for (int32_t t = 0; t < num_tasks; ++t) {
        if (!rng->Bernoulli(0.5)) continue;
        for (const int32_t id : pool.PairsByTask(t)) ids.push_back(id);
      }
      break;
    default: {
      std::vector<int32_t> all(pool.size());
      for (size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<int32_t>(i);
      }
      std::shuffle(all.begin(), all.end(), rng->engine());
      std::vector<char> worker_taken(pool.num_workers(), 0);
      std::vector<char> task_taken(pool.num_tasks(), 0);
      for (const int32_t id : all) {
        const auto w = static_cast<size_t>(pool.WorkerIndex(id));
        const auto t = static_cast<size_t>(pool.TaskIndex(id));
        if (worker_taken[w] || task_taken[t]) continue;
        worker_taken[w] = task_taken[t] = 1;
        ids.push_back(id);
      }
      break;
    }
  }
  return ids;
}

// Two distinct pairs of `ids` with equal quality and cost means, and
// whether some such pair differs in a variance.
std::pair<bool, bool> MeanTies(const PairPool& pool,
                               const std::vector<int32_t>& ids) {
  bool tie = false;
  bool variance_differs = false;
  for (size_t a = 0; a < ids.size(); ++a) {
    for (size_t b = a + 1; b < ids.size(); ++b) {
      if (pool.QualityMean(ids[a]) != pool.QualityMean(ids[b]) ||
          pool.CostMean(ids[a]) != pool.CostMean(ids[b])) {
        continue;
      }
      tie = true;
      variance_differs |=
          pool.CostVariance(ids[a]) != pool.CostVariance(ids[b]) ||
          pool.Quality(ids[a]).variance() != pool.Quality(ids[b]).variance();
    }
  }
  return {tie, variance_differs};
}

// The pairs of `ids` alive on entry (the quick budget check admits them)
// and their distinct workers and tasks: GreedySelect scans for S_p when
// either count is 1, and returns early once its selections reach either.
struct AliveShape {
  size_t pairs = 0;
  size_t workers = 0;
  size_t tasks = 0;
};

AliveShape ShapeOf(const PairPool& pool, const std::vector<int32_t>& ids,
                   double budget, double delta) {
  const BudgetTracker fresh(budget, delta);
  AliveShape shape;
  std::set<int32_t> workers;
  std::set<int32_t> tasks;
  for (const int32_t id : ids) {
    if (fresh.QuickReject(pool.pair(id))) continue;
    ++shape.pairs;
    workers.insert(pool.WorkerIndex(id));
    tasks.insert(pool.TaskIndex(id));
  }
  shape.workers = workers.size();
  shape.tasks = tasks.size();
  return shape;
}

TEST(GreedyPropertyTest, IncrementalMatchesRebuildOnRandomPools) {
  constexpr int kTrials = 2000;
  constexpr double kBudgets[] = {0.5, 1.5, 3.0, 6.0, 100.0};
  constexpr double kDeltas[] = {0.1, 0.5, 0.9};
  // A staircase S_p must outgrow this, more than twice the largest S_p
  // measured on a real run.
  constexpr int64_t kLargeSp = 48;

  // How often each case the pools are drawn for actually came up.
  int dead_on_entry = 0;
  int mean_ties = 0;
  int variance_ties = 0;
  int both_pots = 0;
  int multi_selections = 0;
  int scans = 0;
  int64_t peak_sp = 0;
  int64_t scan_peak_sp = 0;
  int early_returns = 0;

  Rng rng(20260412);
  for (int trial = 0; trial < kTrials; ++trial) {
    const PairPool pool = DrawPool(&rng);
    const std::vector<int32_t> ids = DrawPairIds(&rng, pool);
    const double budget = kBudgets[rng.UniformInt(0, 4)];
    const double delta = kDeltas[rng.UniformInt(0, 2)];

    const testing_util::ReferenceSelection expected =
        ReferenceGreedySelect(pool, ids, budget, delta);
    GreedyStats stats;
    ASSERT_EQ(GreedySelect(pool, ids, budget, delta, &stats),
              expected.selected)
        << "trial " << trial << ": " << ids.size() << " pairs, budget "
        << budget << ", delta " << delta;
    ASSERT_EQ(stats.iterations, expected.iterations) << "trial " << trial;
    ASSERT_EQ(stats.candidates, expected.candidates) << "trial " << trial;
    ASSERT_EQ(stats.retired_pairs == static_cast<int64_t>(ids.size()),
              expected.exhausted)
        << "trial " << trial << ": " << stats.retired_pairs << " of "
        << ids.size() << " pairs retired";
    peak_sp = std::max(peak_sp, stats.max_candidates);

    const AliveShape shape = ShapeOf(pool, ids, budget, delta);
    const size_t picks = expected.selected.size();
    if (shape.workers == 1 || shape.tasks == 1) {
      scans += shape.pairs > 1;
      scan_peak_sp = std::max(scan_peak_sp, stats.max_candidates);
    } else {
      early_returns += picks > 0 &&
                       (picks == shape.workers || picks == shape.tasks);
    }

    const auto [tie, variance_differs] = MeanTies(pool, ids);
    mean_ties += tie;
    variance_ties += variance_differs;
    bool current = false;
    bool predicted = false;
    for (const int32_t id : ids) {
      dead_on_entry += pool.CostLb(id) > budget;
      (pool.InvolvesPredicted(id) ? predicted : current) = true;
    }
    both_pots += current && predicted;
    multi_selections += expected.selected.size() > 1;
  }

  EXPECT_GT(dead_on_entry, 0);
  EXPECT_GT(mean_ties, kTrials / 10);
  EXPECT_GT(variance_ties, kTrials / 20);
  EXPECT_GT(both_pots, kTrials / 4);
  EXPECT_GT(multi_selections, kTrials / 4);
  EXPECT_GT(scans, kTrials / 10);
  EXPECT_GT(peak_sp, kLargeSp) << "no staircase pool built a large S_p";
  EXPECT_GT(scan_peak_sp, kLargeSp)
      << "no single-task staircase built a large S_p in the scan";
  EXPECT_GT(early_returns, kTrials / 10);
}

}  // namespace
}  // namespace mqa

// Differential property test: the incremental GreedySelect (core/greedy.h)
// returns exactly the selections of the rebuild-every-iteration reference
// loop (tests/greedy_reference.h) on random hand-built pools, and builds
// as many candidate sets S_p of the same summed size (its write-only
// counters against the reference's tallies). A spurious or missing S_p
// member rarely changes the Eq. 10 winner, so the sizes are what catch
// it. The pools are drawn to hit every pruning and tie rule: equal
// (quality, cost) means with equal or differing variances, exact moment
// duplicates, one quality distribution shared by many predicted pairs
// (like the global Case-3 entry), both budget pots, pairs the quick budget
// check rejects on entry, candidate sets past the Eq. 10 cap, and pair-id
// subsets shaped like the D&C leaves, nodes and budget reselections.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/greedy.h"
#include "obs/metrics.h"
#include "tests/greedy_reference.h"

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
  const bool staircase = rng->Bernoulli(0.05);
  const int workers = staircase ? 70 : static_cast<int>(rng->UniformInt(1, 9));
  const int tasks = staircase ? 70 : static_cast<int>(rng->UniformInt(1, 9));
  const double density = staircase ? 0.0 : 0.3 * rng->UniformInt(1, 3);

  PairPoolBuilder builder(static_cast<size_t>(workers),
                          static_cast<size_t>(tasks));
  std::vector<CandidatePair> added;
  const auto add = [&](const CandidatePair& p) {
    added.push_back(p);
    builder.Add(p);
  };
  if (staircase) {
    // Quality and cost rise together: no pair prunes another, so S_p
    // holds up to 70 pairs and the Eq. 10 cap of 48 binds.
    for (int k = 0; k < workers; ++k) {
      CandidatePair p;
      p.worker_index = k;
      p.task_index = k;
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
// order), a D&C leaf (one task's pairs), a D&C node (a task subset's
// pairs, task by task) or a budget reselection (a merged selection: at
// most one pair per worker and per task).
std::vector<int32_t> DrawPairIds(Rng* rng, const PairPool& pool) {
  const auto num_tasks = static_cast<int32_t>(pool.num_tasks());
  std::vector<int32_t> ids;
  switch (rng->UniformInt(0, 3)) {
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
    case 2:
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

TEST(GreedyPropertyTest, IncrementalMatchesRebuildOnRandomPools) {
  constexpr int kTrials = 2000;
  constexpr double kBudgets[] = {0.5, 1.5, 3.0, 6.0, 100.0};
  constexpr double kDeltas[] = {0.1, 0.5, 0.9};
  MetricsRegistry& registry = MetricsRegistry::Get();
  const Counter* iterations = registry.counter("mqa.greedy.iterations");
  const Counter* candidates = registry.counter("mqa.greedy.candidates");
  const Counter* cap_hits = registry.counter("mqa.greedy.eq10_cap_hits");
  const int64_t cap_hits_before = cap_hits->value();

  // How often each case the pools are drawn for actually came up.
  int dead_on_entry = 0;
  int mean_ties = 0;
  int variance_ties = 0;
  int both_pots = 0;
  int multi_selections = 0;

  Rng rng(20260412);
  for (int trial = 0; trial < kTrials; ++trial) {
    const PairPool pool = DrawPool(&rng);
    const std::vector<int32_t> ids = DrawPairIds(&rng, pool);
    const double budget = kBudgets[rng.UniformInt(0, 4)];
    const double delta = kDeltas[rng.UniformInt(0, 2)];

    const testing_util::ReferenceSelection expected =
        ReferenceGreedySelect(pool, ids, budget, delta);
    const int64_t iterations_before = iterations->value();
    const int64_t candidates_before = candidates->value();
    ASSERT_EQ(GreedySelect(pool, ids, budget, delta), expected.selected)
        << "trial " << trial << ": " << ids.size() << " pairs, budget "
        << budget << ", delta " << delta;
#if !defined(MQA_OBS_DISABLED)
    ASSERT_EQ(iterations->value() - iterations_before, expected.iterations)
        << "trial " << trial;
    ASSERT_EQ(candidates->value() - candidates_before, expected.candidates)
        << "trial " << trial;
#endif

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
#if !defined(MQA_OBS_DISABLED)
  EXPECT_GT(cap_hits->value(), cap_hits_before)
      << "no staircase pool pushed S_p past the Eq. 10 cap";
#endif
}

}  // namespace
}  // namespace mqa

#include "core/merge.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/merge_reference.h"

namespace mqa {
namespace {

// Pool with explicit pairs: (worker, task, cost, quality).
PairPool HandPool(int num_workers, int num_tasks,
                  const std::vector<std::tuple<int, int, double, double>>&
                      specs) {
  PairPoolBuilder builder(static_cast<size_t>(num_workers),
                          static_cast<size_t>(num_tasks));
  for (const auto& [w, t, c, q] : specs) {
    CandidatePair p;
    p.worker_index = w;
    p.task_index = t;
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
    builder.Add(p);
  }
  return std::move(builder).Build();
}

void ExpectNoWorkerConflicts(const PairPool& pool,
                             const std::vector<int32_t>& merged) {
  std::set<int32_t> workers;
  std::set<int32_t> tasks;
  for (const int32_t id : merged) {
    EXPECT_TRUE(workers.insert(pool.WorkerIndex(id)).second)
        << "worker " << pool.WorkerIndex(id) << " duplicated";
    EXPECT_TRUE(tasks.insert(pool.TaskIndex(id)).second)
        << "task " << pool.TaskIndex(id) << " duplicated";
  }
}

TEST(MergeTest, DisjointSetsConcatenate) {
  const PairPool pool =
      HandPool(2, 2, {{0, 0, 1.0, 2.0}, {1, 1, 1.0, 3.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  EXPECT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
}

TEST(MergeTest, ConflictKeepsBetterPairAndReassignsLoser) {
  // Worker 0 valid for both tasks; worker 1 valid for task 1 only
  // (the paper's Example 5 shape).
  const PairPool pool = HandPool(
      2, 2,
      {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}, {1, 1, 2.0, 3.0}});
  std::vector<int32_t> merged = {0};  // <w0, t0> from subproblem M1
  MergeResults(pool, &merged, {1});   // <w0, t1> from subproblem M2
  // <w0,t0> (q5) beats <w0,t1> (q2); t1 falls back to worker 1.
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  std::set<int32_t> ids(merged.begin(), merged.end());
  EXPECT_TRUE(ids.count(0) > 0);
  EXPECT_TRUE(ids.count(2) > 0);
}

TEST(MergeTest, ConflictIncomingWinsRewritesMerged) {
  const PairPool pool = HandPool(
      2, 2,
      {{0, 0, 1.0, 2.0}, {0, 1, 1.0, 5.0}, {1, 0, 2.0, 3.0}});
  std::vector<int32_t> merged = {0};  // <w0, t0> (q2)
  MergeResults(pool, &merged, {1});   // <w0, t1> (q5) wins
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  std::set<int32_t> ids(merged.begin(), merged.end());
  EXPECT_TRUE(ids.count(1) > 0);  // incoming kept
  EXPECT_TRUE(ids.count(2) > 0);  // t0 reassigned to w1
}

TEST(MergeTest, LoserTaskDroppedWhenNoWorkerLeft) {
  // Single worker valid for both tasks; no replacement exists.
  const PairPool pool =
      HandPool(1, 2, {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], 0);  // better pair survives, t1 unassigned
}

TEST(MergeTest, ReplacementPicksHighestQualityAvailable) {
  const PairPool pool = HandPool(
      3, 2,
      {{0, 0, 1.0, 5.0}, {0, 1, 1.0, 2.0}, {1, 1, 2.0, 3.0},
       {2, 1, 2.0, 4.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {1});
  ASSERT_EQ(merged.size(), 2u);
  ExpectNoWorkerConflicts(pool, merged);
  // t1's replacement should be worker 2 (q4 > q3).
  bool found = false;
  for (const int32_t id : merged) {
    if (pool.TaskIndex(id) == 1) {
      EXPECT_EQ(pool.WorkerIndex(id), 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MergeTest, MultipleConflictsResolvedInCostOrder) {
  // Workers 0 and 1 both conflict; each has a fallback worker.
  const PairPool pool = HandPool(
      4, 4,
      {{0, 0, 1.0, 5.0}, {1, 1, 1.0, 5.0},            // merged
       {0, 2, 3.0, 4.0}, {1, 3, 2.0, 4.0},            // incoming conflicts
       {2, 2, 1.0, 1.0}, {3, 3, 1.0, 1.0},            // fallbacks
       {2, 0, 1.0, 0.5}, {3, 1, 1.0, 0.5}});
  std::vector<int32_t> merged = {0, 1};
  MergeResults(pool, &merged, {2, 3});
  EXPECT_EQ(merged.size(), 4u);
  ExpectNoWorkerConflicts(pool, merged);
}

TEST(MergeTest, EmptyIncoming) {
  const PairPool pool = HandPool(1, 1, {{0, 0, 1.0, 1.0}});
  std::vector<int32_t> merged = {0};
  MergeResults(pool, &merged, {});
  EXPECT_EQ(merged, (std::vector<int32_t>{0}));
}

TEST(MergeTest, EmptyMerged) {
  const PairPool pool = HandPool(1, 1, {{0, 0, 1.0, 1.0}});
  std::vector<int32_t> merged;
  MergeResults(pool, &merged, {0});
  EXPECT_EQ(merged, (std::vector<int32_t>{0}));
}

TEST(MergeTest, RandomizedStressNoConflictsEver) {
  // Random bipartite pools, random disjoint-task partial assignments with
  // deliberately overlapping workers; the merged result must always be a
  // valid partial matching and must not lose assignable tasks when a
  // replacement exists.
  Rng rng(12345);
  for (int trial = 0; trial < 50; ++trial) {
    const int num_workers = 4 + static_cast<int>(rng.UniformInt(0, 6));
    const int num_tasks = 4 + static_cast<int>(rng.UniformInt(0, 6));
    std::vector<std::tuple<int, int, double, double>> specs;
    for (int w = 0; w < num_workers; ++w) {
      for (int t = 0; t < num_tasks; ++t) {
        if (rng.Bernoulli(0.5)) {
          specs.emplace_back(w, t, rng.Uniform(0.5, 5.0),
                             rng.Uniform(0.5, 4.0));
        }
      }
    }
    const PairPool pool = HandPool(num_workers, num_tasks, specs);

    // Split tasks in two halves and pick one random pair per task.
    std::vector<int32_t> merged;
    std::vector<int32_t> incoming;
    for (int t = 0; t < num_tasks; ++t) {
      const PairIdSpan options = pool.PairsByTask(t);
      if (options.empty()) continue;
      const int32_t pick = options[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
      (t < num_tasks / 2 ? merged : incoming).push_back(pick);
    }
    // Deduplicate workers *within* each side (valid partial matchings).
    const auto dedupe = [&](std::vector<int32_t>* side) {
      std::set<int32_t> seen;
      std::vector<int32_t> out;
      for (const int32_t id : *side) {
        if (seen.insert(pool.WorkerIndex(id)).second) out.push_back(id);
      }
      *side = out;
    };
    dedupe(&merged);
    dedupe(&incoming);
    const size_t before = merged.size() + incoming.size();

    MergeResults(pool, &merged, incoming);
    ExpectNoWorkerConflicts(pool, merged);
    // Merging never grows the assignment beyond the input union.
    EXPECT_LE(merged.size(), before) << "trial " << trial;
  }
}

// Up to 12 workers and tasks with means on a coarse grid, so PairBeats and
// the replacement rule meet ties; about half the pairs are predicted
// (uncertain cost and quality, the future pot), the rest current.
PairPool DrawMixedPool(Rng* rng) {
  const auto num_workers = static_cast<int>(rng->UniformInt(2, 12));
  const auto num_tasks = static_cast<int>(rng->UniformInt(2, 12));
  const double density = rng->Uniform(0.2, 0.7);
  PairPoolBuilder builder(static_cast<size_t>(num_workers),
                          static_cast<size_t>(num_tasks));
  for (int w = 0; w < num_workers; ++w) {
    for (int t = 0; t < num_tasks; ++t) {
      if (!rng->Bernoulli(density)) continue;
      CandidatePair p;
      p.worker_index = w;
      p.task_index = t;
      const double c = 0.5 * static_cast<double>(rng->UniformInt(1, 6));
      const double q = 0.5 * static_cast<double>(rng->UniformInt(2, 6));
      if (rng->Bernoulli(0.5)) {
        p.involves_predicted = true;
        p.cost = Uncertain(c, 0.1 * static_cast<double>(rng->UniformInt(0, 2)),
                           std::max(0.0, c - 0.5), c + 0.5);
        p.quality =
            Uncertain(q, 0.1 * static_cast<double>(rng->UniformInt(0, 2)),
                      q - 0.5, q + 0.5);
        p.existence = rng->Uniform(0.3, 1.0);
      } else {
        p.cost = Uncertain::Fixed(c);
        p.quality = Uncertain::Fixed(q);
      }
      builder.Add(p);
    }
  }
  return std::move(builder).Build();
}

// Sub-results over 2-4 disjoint task sets, like the D&C children of one
// node: most tasks get a random pair, no worker is used twice within a
// sub-result, and workers repeat across sub-results.
std::vector<std::vector<int32_t>> DrawSubResults(Rng* rng,
                                                 const PairPool& pool) {
  std::vector<std::vector<int32_t>> results(
      static_cast<size_t>(rng->UniformInt(2, 4)));
  std::vector<std::set<int32_t>> workers(results.size());
  for (int32_t t = 0; t < static_cast<int32_t>(pool.num_tasks()); ++t) {
    const auto part = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(results.size()) - 1));
    const PairIdSpan options = pool.PairsByTask(t);
    if (options.empty() || rng->Bernoulli(0.2)) continue;
    const int32_t id = options[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
    if (workers[part].insert(pool.WorkerIndex(id)).second) {
      results[part].push_back(id);
    }
  }
  for (std::vector<int32_t>& result : results) {
    std::shuffle(result.begin(), result.end(), rng->engine());
  }
  return results;
}

// Differential test: the flat-array MergeResults returns exactly what the
// former hash-table one (tests/merge_reference.h) returns, order included,
// merge after merge.
TEST(MergeTest, FlatIndexMatchesHashReference) {
  constexpr int kTrials = 1500;
  testing_util::MergeCases cases;
  int both_pots = 0;
  Rng rng(20261017);
  for (int trial = 0; trial < kTrials; ++trial) {
    const PairPool pool = DrawMixedPool(&rng);
    bool current = false;
    bool predicted = false;
    std::vector<int32_t> merged;
    std::vector<int32_t> expected;
    for (const std::vector<int32_t>& sub : DrawSubResults(&rng, pool)) {
      for (const int32_t id : sub) {
        (pool.InvolvesPredicted(id) ? predicted : current) = true;
      }
      MergeResults(pool, &merged, sub);
      testing_util::ReferenceMergeResults(pool, &expected, sub, &cases);
      ASSERT_EQ(merged, expected) << "trial " << trial;
    }
    ExpectNoWorkerConflicts(pool, merged);
    both_pots += current && predicted;
  }
  EXPECT_GT(both_pots, kTrials / 2);
  EXPECT_GT(cases.incoming_wins, 0);
  EXPECT_GT(cases.merged_wins, 0);
  EXPECT_GT(cases.replaced, 0);
  EXPECT_GT(cases.dropped, 0);
}

}  // namespace
}  // namespace mqa

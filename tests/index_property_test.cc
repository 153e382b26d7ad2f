// Property tests for index-backed candidate generation: on randomized
// instances across velocity/deadline/budget/gamma ranges, BuildPairPool
// must produce the *identical* pair pool (same pair order, indices,
// costs, qualities, existence, adjacency) whether its default R-tree or
// the reference BruteForceIndex (handed in through set_task_index)
// enumerates the candidates, sequential or split into worker ranges
// across any thread count — including through the simulator's per-epoch
// TaskIndexCache. The ordered scan (a hit bitmap over task ids read back
// word by word) is checked against the seed's double CanReach loop at
// every bitmap-word boundary, for zero-velocity workers, and for indexes
// that cover more tasks than participate or visit hits out of order.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "index/rtree_index.h"
#include "index/task_index_cache.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"
#include "workload/spatial_dist.h"

namespace mqa {
namespace {

using testing_util::BuildBrutePool;
using testing_util::ConstantQualityModel;
using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::PairIdsOfWorker;
using testing_util::RandomMixedInstance;

void ExpectSameUncertain(const Uncertain& a, const Uncertain& b) {
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.lb(), b.lb());
  EXPECT_EQ(a.ub(), b.ub());
}

void ExpectSameSpan(const PairIdSpan& a, const PairIdSpan& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
}

void ExpectSamePool(const PairPool& a, const PairPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    const CandidatePair pa = a.GetPair(static_cast<int32_t>(k));
    const CandidatePair pb = b.GetPair(static_cast<int32_t>(k));
    EXPECT_EQ(pa.worker_index, pb.worker_index) << "pair " << k;
    EXPECT_EQ(pa.task_index, pb.task_index) << "pair " << k;
    EXPECT_EQ(pa.involves_predicted, pb.involves_predicted) << "pair " << k;
    EXPECT_EQ(pa.existence, pb.existence) << "pair " << k;
    ExpectSameUncertain(pa.cost, pb.cost);
    ExpectSameUncertain(pa.quality, pb.quality);
  }
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (size_t j = 0; j < a.num_tasks(); ++j) {
    ExpectSameSpan(a.PairsByTask(static_cast<int32_t>(j)),
                   b.PairsByTask(static_cast<int32_t>(j)));
  }
  ASSERT_EQ(a.num_workers(), b.num_workers());
  for (size_t i = 0; i < a.num_workers(); ++i) {
    const auto worker = static_cast<int32_t>(i);
    ExpectSameSpan(PairIdsOfWorker(a, worker), PairIdsOfWorker(b, worker));
  }
}

TEST(PairPoolIndexProperty, RTreeMatchesBruteForceCurrentOnly) {
  const ConstantQualityModel quality(1.5);
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    // Sweep velocity/deadline/budget so reach radii range from "nothing
    // reachable" to "everything reachable".
    const double velocity_hi = rng.Uniform(0.02, 1.0);
    const double deadline_hi = rng.Uniform(0.2, 3.0);
    const double budget = rng.Uniform(0.0, 10.0);
    const double unit_price = rng.Uniform(0.1, 10.0);
    const ProblemInstance inst = RandomMixedInstance(
        &rng, &quality, static_cast<int>(rng.UniformInt(0, 40)),
        static_cast<int>(rng.UniformInt(0, 40)), 0, 0, velocity_hi,
        deadline_hi, unit_price, budget);
    ExpectSamePool(BuildBrutePool(inst), BuildPairPool(inst));
  }
}

TEST(PairPoolIndexProperty, RTreeMatchesBruteForceWithPredicted) {
  Rng rng(1234);
  // Sweep the quality range [q-, q+] alongside the geometry parameters.
  for (const double q_hi : {1.5, 2.0, 5.0}) {
    const RangeQualityModel quality(1.0, q_hi);
    for (int trial = 0; trial < 20; ++trial) {
      const ProblemInstance inst = RandomMixedInstance(
          &rng, &quality, static_cast<int>(rng.UniformInt(1, 25)),
          static_cast<int>(rng.UniformInt(1, 25)),
          static_cast<int>(rng.UniformInt(0, 10)),
          static_cast<int>(rng.UniformInt(0, 10)), rng.Uniform(0.05, 0.6),
          rng.Uniform(0.5, 2.5), rng.Uniform(0.5, 5.0), rng.Uniform(1.0, 8.0));
      ExpectSamePool(BuildBrutePool(inst), BuildPairPool(inst));
      // WoP variant: only current entities participate.
      ExpectSamePool(BuildBrutePool(inst, /*include_predicted=*/false),
                     BuildPairPool(inst, /*include_predicted=*/false));
    }
  }
}

/// A mixed instance whose current locations follow `dist` — uniform,
/// Zipf or Gaussian-cluster — the Fig. 18/19 regimes.
ProblemInstance SkewedMixedInstance(Rng* rng, const QualityModel* quality,
                                    const SpatialDistConfig& dist,
                                    int num_workers, int num_tasks,
                                    int num_predicted) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    const Point c = SampleLocation(dist, rng);
    workers.push_back(MakeWorker(i, c.x, c.y, rng->Uniform(0.05, 0.4)));
  }
  for (int i = 0; i < num_predicted; ++i) {
    workers.push_back(MakePredictedWorker(
        1000 + i,
        BBox::KernelBox(SampleLocation(dist, rng), rng->Uniform(0.0, 0.15),
                        rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.05, 0.4)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_tasks; ++j) {
    const Point c = SampleLocation(dist, rng);
    tasks.push_back(MakeTask(j, c.x, c.y, rng->Uniform(0.1, 2.0)));
  }
  for (int j = 0; j < num_predicted; ++j) {
    tasks.push_back(MakePredictedTask(
        1000 + j,
        BBox::KernelBox(SampleLocation(dist, rng), rng->Uniform(0.0, 0.15),
                        rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.1, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(num_workers),
                         std::move(tasks), static_cast<size_t>(num_tasks),
                         quality, /*unit_price=*/1.0, /*budget=*/5.0);
}

TEST(PairPoolIndexProperty, BothIndexesMatchOnSkewedWorkloadsAcrossThreads) {
  // BuildPairPool output is byte-identical for the brute-force reference
  // and the R-tree on uniform, Zipf and Gaussian-cluster workloads,
  // sequential and in worker ranges over {2, 4, 8} threads (80 workers
  // clears kMinParallelWorkers, so >1-thread pools take the parallel
  // builder for real).
  const RangeQualityModel quality(1.0, 2.0);
  SpatialDistConfig uniform;
  SpatialDistConfig zipf;
  zipf.kind = SpatialDistribution::kZipf;
  zipf.zipf_skew = 0.9;
  SpatialDistConfig cluster;
  cluster.kind = SpatialDistribution::kGaussian;
  cluster.gaussian_sigma = 0.05;

  Rng rng(24680);
  for (const SpatialDistConfig& dist : {uniform, zipf, cluster}) {
    for (int trial = 0; trial < 3; ++trial) {
      const ProblemInstance inst =
          SkewedMixedInstance(&rng, &quality, dist, 80, 80,
                              static_cast<int>(rng.UniformInt(0, 12)));
      ASSERT_GE(inst.workers().size(), kMinParallelWorkers);
      const PairPool base = BuildBrutePool(inst);
      for (const int threads : {1, 2, 4, 8}) {
        ParallelRunner runner(threads);
        ProblemInstance threaded = inst;
        threaded.set_thread_pool(runner.pool());
        ExpectSamePool(base, BuildBrutePool(threaded));
        ExpectSamePool(base, BuildPairPool(threaded));
      }
    }
  }
}

TEST(PairPoolIndexProperty, ExternalIndexMatchesInternal) {
  const ConstantQualityModel quality(1.0);
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    ProblemInstance inst = RandomMixedInstance(
        &rng, &quality, 20, 20, 5, 5, rng.Uniform(0.05, 0.5),
        rng.Uniform(0.5, 2.0), 1.0, 5.0);
    // No deadlines in the entries: the builder's exact CanReach filter
    // still applies every task's own.
    BruteForceIndex external;
    std::vector<IndexEntry> entries;
    for (size_t j = 0; j < inst.tasks().size(); ++j) {
      entries.push_back(
          {static_cast<int64_t>(j), inst.tasks()[j].location});
    }
    external.BulkLoad(entries);

    // The references are built (on their own R-trees) before the external
    // index is attached, so they never see it.
    const PairPool with_predicted = BuildPairPool(inst, true);
    const PairPool current_only = BuildPairPool(inst, false);
    inst.set_task_index(&external);
    // The external index covers predicted tasks too; the builder must
    // filter them out when include_predicted is off.
    ExpectSamePool(with_predicted, BuildPairPool(inst, true));
    ExpectSamePool(current_only, BuildPairPool(inst, false));
  }
}

// ------------------------------------------------------ the ordered scan

/// (worker, task) index pairs in pool order.
using IndexPairs = std::vector<std::pair<int32_t, int32_t>>;

/// The seed's double loop: every pair CanReach accepts, worker-major and
/// tasks ascending — the pairs, in order, that every pool must hold.
IndexPairs ReachableByDoubleLoop(const ProblemInstance& inst,
                                 bool include_predicted) {
  const size_t num_workers = include_predicted ? inst.workers().size()
                                               : inst.num_current_workers();
  const size_t num_tasks = include_predicted ? inst.tasks().size()
                                             : inst.num_current_tasks();
  IndexPairs pairs;
  for (size_t i = 0; i < num_workers; ++i) {
    for (size_t j = 0; j < num_tasks; ++j) {
      if (inst.CanReach(inst.workers()[i], inst.tasks()[j])) {
        pairs.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  return pairs;
}

/// The pool's (worker, task) pairs; checks on the way that every
/// current-current pair carries the model's score.
IndexPairs PoolPairs(const ProblemInstance& inst, const PairPool& pool) {
  IndexPairs pairs;
  for (size_t k = 0; k < pool.size(); ++k) {
    const auto id = static_cast<int32_t>(k);
    const int32_t i = pool.WorkerIndex(id);
    const int32_t j = pool.TaskIndex(id);
    pairs.emplace_back(i, j);
    if (pool.QualityKind(id) == PairQualityKind::kCurrent) {
      EXPECT_EQ(pool.QualityMean(id),
                inst.quality_model()->Score(
                    inst.workers()[static_cast<size_t>(i)],
                    inst.tasks()[static_cast<size_t>(j)]))
          << "pair " << k;
    }
  }
  return pairs;
}

/// Tasks of worker `worker` in `pool`, in pool order.
std::vector<int32_t> TasksOf(const PairPool& pool, int32_t worker) {
  std::vector<int32_t> tasks;
  for (const int32_t id : PairIdsOfWorker(pool, worker)) {
    tasks.push_back(pool.TaskIndex(id));
  }
  return tasks;
}

/// Builds `inst`'s pool every way the build can get its candidates — its
/// own R-tree over the participating tasks, an R-tree over every task,
/// and a BruteForceIndex over every task loaded in shuffled order (so it
/// visits hits in neither id nor R-tree order), both handed in through
/// set_task_index — at 1 and 4 threads, with and without predicted
/// entities (without them, the handed-in indexes cover more tasks than
/// participate). Each pool must hold the double loop's pairs in its
/// order.
void ExpectEveryBuildMatchesDoubleLoop(const ProblemInstance& inst,
                                       Rng* rng) {
  std::vector<IndexEntry> entries;
  for (size_t j = 0; j < inst.tasks().size(); ++j) {
    entries.push_back({static_cast<int64_t>(j), inst.tasks()[j].location,
                       inst.tasks()[j].deadline});
  }
  RTreeIndex rtree;
  rtree.BulkLoad(entries);
  std::shuffle(entries.begin(), entries.end(), rng->engine());
  BruteForceIndex shuffled;
  shuffled.BulkLoad(entries);
  const SpatialIndex* indexes[] = {nullptr, &rtree, &shuffled};

  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    ProblemInstance threaded = inst;
    threaded.set_thread_pool(runner.pool());
    for (const bool include_predicted : {true, false}) {
      const IndexPairs want = ReachableByDoubleLoop(inst, include_predicted);
      for (const SpatialIndex* index : indexes) {
        SCOPED_TRACE(testing::Message()
                     << threads << " threads, include_predicted "
                     << include_predicted << ", index "
                     << (index == nullptr ? "own" : index->name()));
        threaded.set_task_index(index);
        EXPECT_EQ(PoolPairs(inst, BuildPairPool(threaded, include_predicted)),
                  want);
      }
    }
  }
}

TEST(OrderedScanTest, HitsSpanningBitmapWordsComeOutInIdOrder) {
  // 200 current tasks: four bitmap words, the last holding 8 ids. Tasks
  // 0, 63, 64 and 199 (three different words) and the 6 predicted tasks
  // sit in one corner; every other task is far from it.
  const ConstantQualityModel quality(1.5);
  Rng rng(64);
  const std::vector<int32_t> corner_ids = {0, 63, 64, 199};
  const Point corner{0.92, 0.92};
  std::vector<Task> tasks;
  for (int32_t j = 0; j < 200; ++j) {
    const bool in_corner =
        std::find(corner_ids.begin(), corner_ids.end(), j) != corner_ids.end();
    tasks.push_back(
        in_corner ? MakeTask(j, corner.x + rng.Uniform(-0.01, 0.01),
                             corner.y + rng.Uniform(-0.01, 0.01), 1.5)
                  : MakeTask(j, rng.Uniform(0.0, 0.6), rng.Uniform(0.0, 0.6),
                             rng.Uniform(0.5, 2.0)));
  }
  for (int32_t q = 0; q < 6; ++q) {
    tasks.push_back(MakePredictedTask(
        1000 + q, BBox::KernelBox(corner, 0.01, 0.01), 2.5));
  }
  // Worker 0 reaches exactly the corner. Worker 1 stands on task 63 with
  // velocity 0: the index visits that task (distance 0), CanReach
  // rejects it. Worker 2 reaches the corner again, after the
  // zero-velocity worker; worker 3 reaches only tasks near the origin,
  // so any corner bit left set by worker 2 would show up as its pair.
  // Worker 4 reaches everything, and 40 random workers fill the pool.
  std::vector<Worker> workers = {
      MakeWorker(0, corner.x, corner.y, 0.05),
      MakeWorker(1, tasks[63].location.lo().x, tasks[63].location.lo().y,
                 0.0),
      MakeWorker(2, corner.x, corner.y, 0.05),
      MakeWorker(3, 0.05, 0.05, 0.05),
      MakeWorker(4, 0.5, 0.5, 2.0)};
  for (int i = 5; i < 45; ++i) {
    workers.push_back(
        MakeWorker(i, rng.Uniform(), rng.Uniform(), rng.Uniform(0.02, 0.4)));
  }
  workers.push_back(MakePredictedWorker(
      2000, BBox::KernelBox(corner, 0.02, 0.02), 0.05));
  const ProblemInstance inst(std::move(workers), 45, std::move(tasks), 200,
                             &quality, 1.0, 5.0);
  ASSERT_GE(inst.workers().size(), kMinParallelWorkers);

  ExpectEveryBuildMatchesDoubleLoop(inst, &rng);
  PairPool pool = BuildPairPool(inst, /*include_predicted=*/false);
  EXPECT_EQ(TasksOf(pool, 0), corner_ids);
  EXPECT_TRUE(TasksOf(pool, 1).empty()) << "zero velocity reaches nothing";
  EXPECT_EQ(TasksOf(pool, 2), corner_ids);
  for (const int32_t j : TasksOf(pool, 3)) {
    EXPECT_EQ(std::count(corner_ids.begin(), corner_ids.end(), j), 0) << j;
  }
  EXPECT_EQ(TasksOf(pool, 4).size(), 200u);
  pool = BuildPairPool(inst);
  std::vector<int32_t> with_corner_predicted = corner_ids;
  for (int32_t j = 200; j < 206; ++j) with_corner_predicted.push_back(j);
  EXPECT_EQ(TasksOf(pool, 0), with_corner_predicted);
  EXPECT_TRUE(TasksOf(pool, 1).empty());
  EXPECT_EQ(TasksOf(pool, 45), with_corner_predicted);
}

TEST(OrderedScanTest, MatchesDoubleLoopAtEveryWordBoundary) {
  // Current task counts on and around multiples of 64 (the last bitmap
  // word full, holding one id, or missing), with predicted tasks past
  // them, which the handed-in indexes cover even when only current
  // entities participate.
  const RangeQualityModel quality(1.0, 2.0, 3);
  Rng rng(128);
  for (const int num_tasks : {0, 1, 63, 64, 65, 127, 128, 129, 130, 200, 257}) {
    SCOPED_TRACE(testing::Message() << num_tasks << " current tasks");
    ProblemInstance inst = RandomMixedInstance(
        &rng, &quality, 40, num_tasks, static_cast<int>(rng.UniformInt(0, 8)),
        static_cast<int>(rng.UniformInt(1, 20)), /*velocity_hi=*/0.4,
        /*deadline_hi=*/2.0, /*unit_price=*/1.0, /*budget=*/5.0);
    ExpectEveryBuildMatchesDoubleLoop(inst, &rng);
  }
}

TEST(TaskIndexCacheProperty, TracksEvolvingTaskSets) {
  const ConstantQualityModel quality(1.0);
  Rng rng(777);
  TaskIndexCache cache;

  // An evolving task pool: each "instance" removes a random subset
  // (assigned/expired), carries the rest, appends arrivals, and tacks on
  // fresh predicted tasks — the simulator's exact mutation pattern.
  std::vector<Task> current;
  TaskId next_id = 0;
  for (int instance = 0; instance < 25; ++instance) {
    std::vector<Task> carried;
    for (const Task& t : current) {
      if (rng.Bernoulli(0.6)) carried.push_back(t);
    }
    const int arrivals = static_cast<int>(rng.UniformInt(0, 12));
    for (int a = 0; a < arrivals; ++a) {
      carried.push_back(
          MakeTask(next_id++, rng.Uniform(), rng.Uniform(), 1.5));
    }
    current = carried;

    std::vector<Task> with_predicted = current;
    const int predicted = static_cast<int>(rng.UniformInt(0, 6));
    for (int q = 0; q < predicted; ++q) {
      with_predicted.push_back(MakePredictedTask(
          q, BBox::KernelBox({rng.Uniform(), rng.Uniform()}, 0.1, 0.1), 1.5));
    }

    cache.BeginInstance(with_predicted);
    ASSERT_EQ(cache.view()->size(), with_predicted.size());

    std::vector<Worker> workers;
    for (int i = 0; i < 15; ++i) {
      workers.push_back(
          MakeWorker(i, rng.Uniform(), rng.Uniform(), rng.Uniform(0.05, 0.4)));
    }
    std::vector<Task> tasks_copy = with_predicted;
    ProblemInstance inst(std::move(workers), 15, std::move(tasks_copy),
                         current.size(), &quality, 1.0, 4.0);
    const PairPool brute = BuildBrutePool(inst);
    inst.set_task_index(cache.view());
    ExpectSamePool(brute, BuildPairPool(inst));
  }
}

TEST(TaskIndexCacheProperty, ViewAnswersByCurrentDeadlines) {
  // Carried tasks' remaining deadlines shrink every epoch, as in the
  // simulator. The cache's view must answer QueryReachable by the
  // deadlines of the vector it was last given, never by an older one.
  const struct {
    Point location;
    double deadline;  // remaining at epoch 0
  } seeds[] = {{{0.5, 0.0}, 2.0}, {{0.3, 0.4}, 1.4}, {{0.9, 0.9}, 3.0}};
  Rng rng(4242);
  TaskIndexCache cache;
  std::vector<Task> tasks;
  TaskId next_id = 0;
  for (const auto& seed : seeds) {
    tasks.push_back(MakeTask(next_id++, seed.location.x, seed.location.y,
                             seed.deadline));
  }
  for (int epoch = 0; epoch < 12; ++epoch) {
    cache.BeginInstance(tasks);
    ASSERT_EQ(cache.view()->size(), tasks.size());
    std::vector<BBox> queries = {BBox::FromPoint({0.0, 0.0})};
    for (int q = 0; q < 20; ++q) {
      queries.push_back(BBox::FromPoint({rng.Uniform(), rng.Uniform()}));
    }
    for (const BBox& query : queries) {
      const double velocity = rng.Uniform(0.05, 1.0);
      for (const double max_deadline : {10.0, rng.Uniform(0.1, 3.0)}) {
        std::vector<int64_t> got;
        cache.view()->QueryReachable(
            query, velocity, max_deadline,
            [&](int64_t id, const BBox&, double) { got.push_back(id); });
        std::sort(got.begin(), got.end());
        std::vector<int64_t> expected;
        for (size_t j = 0; j < tasks.size(); ++j) {
          if (query.MinDistance(tasks[j].location) <=
              velocity * std::min(tasks[j].deadline, max_deadline)) {
            expected.push_back(static_cast<int64_t>(j));
          }
        }
        ASSERT_EQ(got, expected) << "epoch " << epoch;
      }
    }
    // Next epoch: every task is carried with 0.3 less deadline unless
    // it expired, and a few tasks arrive — low churn, so most entries
    // describe carried tasks.
    std::vector<Task> carried;
    for (Task t : tasks) {
      t.deadline -= 0.3;
      if (t.deadline > 0.0) carried.push_back(t);
    }
    for (int a = 0; a < 2; ++a) {
      carried.push_back(MakeTask(next_id++, rng.Uniform(), rng.Uniform(),
                                 rng.Uniform(0.5, 3.0)));
    }
    tasks = std::move(carried);
  }
}

}  // namespace
}  // namespace mqa

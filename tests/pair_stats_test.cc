#include "prediction/pair_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::MatrixQualityModel;
using testing_util::PairIdsOfWorker;
using testing_util::RandomMixedInstance;

/// Hand-written pool columns: pair k joins worker[k] and task[k] with
/// score quality[k]. A current-current pair that is not listed is one
/// that failed CanReach.
struct Columns {
  std::vector<int32_t> worker;
  std::vector<int32_t> task;
  std::vector<double> quality;

  PairStatistics Stats(size_t num_current_workers,
                       size_t num_current_tasks) const {
    return PairStatistics(num_current_workers, num_current_tasks,
                          worker.data(), task.data(), quality.data(),
                          worker.size());
  }
};

// 2 current workers, 2 current tasks, all pairs valid, worker-major:
//   q(w0,t0)=1, q(w0,t1)=2, q(w1,t0)=3, q(w1,t1)=4.
Columns FullyConnectedColumns() {
  return {{0, 0, 1, 1}, {0, 1, 0, 1}, {1.0, 2.0, 3.0, 4.0}};
}

// The same as an instance: 2 fast workers, 2 tasks, all pairs valid.
ProblemInstance FullyConnected(const QualityModel* quality) {
  std::vector<Worker> workers = {MakeWorker(0, 0.2, 0.2, 2.0),
                                 MakeWorker(1, 0.8, 0.8, 2.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.3, 0.3, 1.0),
                             MakeTask(1, 0.7, 0.7, 1.0)};
  return ProblemInstance(std::move(workers), 2, std::move(tasks), 2, quality,
                         1.0, 100.0);
}

TEST(PairStatisticsTest, Case1PerTaskSamples) {
  const PairStatistics stats = FullyConnectedColumns().Stats(2, 2);

  // Task 0 samples: {1, 3} -> mean 2, var 1, bounds [1, 3].
  const Uncertain q0 = stats.QualityCase1(0);
  EXPECT_DOUBLE_EQ(q0.mean(), 2.0);
  EXPECT_DOUBLE_EQ(q0.variance(), 1.0);
  EXPECT_DOUBLE_EQ(q0.lb(), 1.0);
  EXPECT_DOUBLE_EQ(q0.ub(), 3.0);

  // Task 1 samples: {2, 4}.
  const Uncertain q1 = stats.QualityCase1(1);
  EXPECT_DOUBLE_EQ(q1.mean(), 3.0);
}

TEST(PairStatisticsTest, Case2PerWorkerSamples) {
  const PairStatistics stats = FullyConnectedColumns().Stats(2, 2);

  // Worker 0 samples: {1, 2} -> mean 1.5, var 0.25.
  const Uncertain q = stats.QualityCase2(0);
  EXPECT_DOUBLE_EQ(q.mean(), 1.5);
  EXPECT_DOUBLE_EQ(q.variance(), 0.25);
}

TEST(PairStatisticsTest, Case3GlobalSamples) {
  Columns columns = FullyConnectedColumns();
  // A pair with a predicted worker (index 2 of 2 current) is no sample.
  columns.worker.push_back(2);
  columns.task.push_back(0);
  columns.quality.push_back(9.0);
  const PairStatistics stats = columns.Stats(2, 2);
  const Uncertain q = stats.QualityCase3();
  EXPECT_DOUBLE_EQ(q.mean(), 2.5);  // mean of {1,2,3,4}
  EXPECT_DOUBLE_EQ(q.variance(), 1.25);
  EXPECT_EQ(stats.num_valid_pairs(), 4);
}

TEST(PairStatisticsTest, ExistenceProbabilities) {
  const PairStatistics stats = FullyConnectedColumns().Stats(2, 2);
  // All pairs valid: n_j = 2 of |W|=2 -> 1; m_i = 2 of |T|=2 -> 1;
  // u = 4 of 4 -> 1.
  EXPECT_DOUBLE_EQ(stats.ExistenceCase1(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.ExistenceCase2(1), 1.0);
  EXPECT_DOUBLE_EQ(stats.ExistenceCase3(), 1.0);
}

TEST(PairStatisticsTest, PartialReachabilityLowersExistence) {
  // Worker 1 can only reach task 1: the pair (w1, t0) is not in the pool.
  const Columns columns{{0, 0, 1}, {0, 1, 1}, {1.0, 2.0, 4.0}};
  const PairStatistics stats = columns.Stats(2, 2);
  EXPECT_DOUBLE_EQ(stats.ExistenceCase1(0), 0.5);  // only w0 reaches t0
  EXPECT_DOUBLE_EQ(stats.ExistenceCase2(1), 0.5);  // w1 reaches only t1
  EXPECT_DOUBLE_EQ(stats.ExistenceCase3(), 0.75);  // 3 of 4 pairs valid
  EXPECT_EQ(stats.num_valid_pairs(), 3);
}

TEST(PairStatisticsTest, EmptyInstance) {
  const PairStatistics stats = Columns{}.Stats(0, 0);
  EXPECT_EQ(stats.num_valid_pairs(), 0);
  EXPECT_DOUBLE_EQ(stats.ExistenceCase3(), 0.0);
  EXPECT_TRUE(stats.QualityCase3().IsFixed());
}

// ------------------------------------------------------- BuildPairPool

TEST(BuildPairPoolTest, CurrentPairsAreFixed) {
  const MatrixQualityModel quality({{1.0, 2.0}, {3.0, 4.0}});
  const auto inst = FullyConnected(&quality);
  const PairPool pool = BuildPairPool(inst);
  ASSERT_EQ(pool.size(), 4u);
  for (int32_t id = 0; id < 4; ++id) {
    const CandidatePair p = pool.GetPair(id);
    EXPECT_FALSE(p.involves_predicted);
    EXPECT_TRUE(p.cost.IsFixed());
    EXPECT_TRUE(p.quality.IsFixed());
    EXPECT_DOUBLE_EQ(p.existence, 1.0);
  }
}

TEST(BuildPairPoolTest, PredictedPairsGetCase1Stats) {
  const MatrixQualityModel quality({{1.0, 2.0}, {3.0, 4.0}});
  std::vector<Worker> workers = {
      MakeWorker(0, 0.2, 0.2, 2.0), MakeWorker(1, 0.8, 0.8, 2.0),
      MakePredictedWorker(-1, BBox({0.25, 0.25}, {0.35, 0.35}), 2.0)};
  // Deadlines past one instance so the predicted worker's delayed
  // arrival still leaves travel time.
  std::vector<Task> tasks = {MakeTask(0, 0.3, 0.3, 2.0),
                             MakeTask(1, 0.7, 0.7, 2.0)};
  const ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2,
                             &quality, 1.0, 100.0);
  const PairPool pool = BuildPairPool(inst);

  int predicted_pairs = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(pool.size()); ++id) {
    const CandidatePair p = pool.GetPair(id);
    if (!p.involves_predicted) continue;
    ++predicted_pairs;
    EXPECT_EQ(p.worker_index, 2);
    // Case 1 quality: per-task current samples.
    if (p.task_index == 0) {
      EXPECT_DOUBLE_EQ(p.quality.mean(), 2.0);  // {1,3}
    } else {
      EXPECT_DOUBLE_EQ(p.quality.mean(), 3.0);  // {2,4}
    }
    EXPECT_DOUBLE_EQ(p.existence, 1.0);
    EXPECT_FALSE(p.cost.IsFixed());
    EXPECT_GT(p.cost.ub(), p.cost.lb());
  }
  EXPECT_EQ(predicted_pairs, 2);
}

TEST(BuildPairPoolTest, ExcludePredictedFlag) {
  const MatrixQualityModel quality({{1.0, 2.0}, {3.0, 4.0}});
  std::vector<Worker> workers = {
      MakeWorker(0, 0.2, 0.2, 2.0),
      MakePredictedWorker(-1, BBox({0.25, 0.25}, {0.35, 0.35}), 2.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.3, 0.3, 2.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1,
                             &quality, 1.0, 100.0);
  const PairPool with = BuildPairPool(inst, /*include_predicted=*/true);
  const PairPool without = BuildPairPool(inst, /*include_predicted=*/false);
  EXPECT_EQ(with.size(), 2u);
  EXPECT_EQ(without.size(), 1u);
}

TEST(BuildPairPoolTest, CostScalesWithUnitPrice) {
  const MatrixQualityModel quality(
      std::vector<std::vector<double>>{{1.0}});
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 2.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.3, 0.4, 1.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1,
                             &quality, 10.0, 100.0);
  const PairPool pool = BuildPairPool(inst);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_DOUBLE_EQ(pool.CostMean(0), 5.0);  // 10 * 0.5
}

TEST(BuildPairPoolTest, CsrAdjacencyConsistent) {
  const MatrixQualityModel quality({{1.0, 2.0}, {3.0, 4.0}});
  const auto inst = FullyConnected(&quality);
  const PairPool pool = BuildPairPool(inst);
  size_t total_by_task = 0;
  for (size_t j = 0; j < pool.num_tasks(); ++j) {
    total_by_task += pool.PairsByTask(static_cast<int32_t>(j)).size();
  }
  size_t total_by_worker = 0;
  for (size_t i = 0; i < pool.num_workers(); ++i) {
    total_by_worker +=
        PairIdsOfWorker(pool, static_cast<int32_t>(i)).size();
  }
  EXPECT_EQ(total_by_task, pool.size());
  EXPECT_EQ(total_by_worker, pool.size());
  for (size_t j = 0; j < pool.num_tasks(); ++j) {
    int32_t prev = -1;
    for (const int32_t id : pool.PairsByTask(static_cast<int32_t>(j))) {
      EXPECT_EQ(pool.TaskIndex(id), static_cast<int32_t>(j));
      EXPECT_GT(id, prev) << "rows must ascend by pair id";
      prev = id;
    }
  }
  // A built pool is worker-major, so each worker's pairs are one
  // contiguous run of ids: the pool needs no by-worker adjacency.
  for (size_t k = 1; k < pool.size(); ++k) {
    const auto id = static_cast<int32_t>(k);
    EXPECT_LE(pool.WorkerIndex(id - 1), pool.WorkerIndex(id)) << "pair " << k;
  }
}

// ------------------------------------------ Cases 1-3 by definition

/// The scores of one Case 1-3 sample set and the existence its case
/// assigns, gathered straight from the paper's definition.
struct Expected {
  std::vector<double> samples;
  double existence = 0.0;
};

/// Checks `pair` against `want`: lb/ub and existence exactly; mean and
/// variance to 1e-12 relative (the variance relative to the second raw
/// moment, the scale its rounding error follows). No samples means a
/// fixed zero.
void ExpectMatches(const Expected& want, const CandidatePair& pair,
                   const char* what, size_t id) {
  EXPECT_EQ(pair.existence, want.existence) << what << " pair " << id;
  double mean = 0.0;
  double variance = 0.0;
  double lb = 0.0;
  double ub = 0.0;
  if (!want.samples.empty()) {
    const double n = static_cast<double>(want.samples.size());
    double sum = 0.0;
    for (const double q : want.samples) sum += q;
    mean = sum / n;
    double squares = 0.0;
    for (const double q : want.samples) squares += (q - mean) * (q - mean);
    variance = squares / n;
    lb = *std::min_element(want.samples.begin(), want.samples.end());
    ub = *std::max_element(want.samples.begin(), want.samples.end());
  }
  EXPECT_EQ(pair.quality.lb(), lb) << what << " pair " << id;
  EXPECT_EQ(pair.quality.ub(), ub) << what << " pair " << id;
  EXPECT_LE(std::abs(pair.quality.mean() - mean), 1e-12 * std::abs(mean))
      << what << " pair " << id;
  EXPECT_LE(std::abs(pair.quality.variance() - variance),
            1e-12 * (variance + mean * mean))
      << what << " pair " << id;
}

TEST(PairStatisticsDefinition, BuiltPoolsMatchCases1To3) {
  const RangeQualityModel quality(1.0, 2.0, 29);
  Rng rng(8);
  int64_t checked[3] = {0, 0, 0};
  for (int trial = 0; trial < 6; ++trial) {
    // Unequal current counts, so |W_p| and |T_p| cannot stand in for
    // each other; enough workers for 4 threads to split the build.
    const ProblemInstance base = RandomMixedInstance(
        &rng, &quality, static_cast<int>(rng.UniformInt(35, 80)),
        static_cast<int>(rng.UniformInt(20, 30)),
        static_cast<int>(rng.UniformInt(1, 12)),
        static_cast<int>(rng.UniformInt(1, 12)), /*velocity_hi=*/0.5,
        /*deadline_hi=*/2.0, /*unit_price=*/1.0, /*budget=*/5.0);
    const size_t ncw = base.num_current_workers();
    const size_t nct = base.num_current_tasks();

    // Every current-current pair passing CanReach, scored with Score.
    std::vector<Expected> case1(nct);
    std::vector<Expected> case2(ncw);
    Expected case3;
    for (size_t i = 0; i < ncw; ++i) {
      for (size_t j = 0; j < nct; ++j) {
        const Worker& w = base.workers()[i];
        const Task& t = base.tasks()[j];
        if (!base.CanReach(w, t)) continue;
        const double q = quality.Score(w, t);
        case1[j].samples.push_back(q);
        case2[i].samples.push_back(q);
        case3.samples.push_back(q);
      }
    }
    for (Expected& e : case1) {
      e.existence = std::min(static_cast<double>(e.samples.size()) /
                                 static_cast<double>(ncw),
                             1.0);
    }
    for (Expected& e : case2) {
      e.existence = std::min(static_cast<double>(e.samples.size()) /
                                 static_cast<double>(nct),
                             1.0);
    }
    case3.existence =
        static_cast<double>(case3.samples.size()) /
        (static_cast<double>(ncw) * static_cast<double>(nct));

    ASSERT_GE(ncw, kMinParallelWorkers);
    for (const int threads : {1, 4}) {
      ParallelRunner runner(threads);
      ProblemInstance inst = base;
      inst.set_thread_pool(runner.pool());
      const PairPool pool = BuildPairPool(inst);
      for (size_t id = 0; id < pool.size(); ++id) {
        const CandidatePair pair = pool.GetPair(static_cast<int32_t>(id));
        const bool worker_predicted =
            inst.workers()[static_cast<size_t>(pair.worker_index)].predicted;
        const bool task_predicted =
            inst.tasks()[static_cast<size_t>(pair.task_index)].predicted;
        if (worker_predicted && !task_predicted) {
          ExpectMatches(case1[static_cast<size_t>(pair.task_index)], pair,
                        "Case 1", id);
          ++checked[0];
        } else if (!worker_predicted && task_predicted) {
          ExpectMatches(case2[static_cast<size_t>(pair.worker_index)], pair,
                        "Case 2", id);
          ++checked[1];
        } else if (worker_predicted && task_predicted) {
          ExpectMatches(case3, pair, "Case 3", id);
          ++checked[2];
        }
      }
    }
  }
  EXPECT_GT(checked[0], 0);
  EXPECT_GT(checked[1], 0);
  EXPECT_GT(checked[2], 0);
}

}  // namespace
}  // namespace mqa

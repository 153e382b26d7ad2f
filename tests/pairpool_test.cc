// The columnar PairPool:
//
//  * one PairPoolStorage reused across "epochs" (the simulator's
//    pattern) never leaks stale data into a later pool, even when the
//    instances shrink, and a warm rebuild keeps every vector in place;
//  * a storage backs one live pool at a time (death test);
//  * BuildPairPool's stats sink is final when the build returns;
//  * the filled columns match a pinned fingerprint, and every pair's cost
//    columns are bit-equal to the two-box DistanceBetween, at 1 and 4
//    threads;
//  * hand-built pools round-trip their explicit statistics.

#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "quality/range_quality.h"
#include "stats/distance_stats.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::PairIdsOfWorker;

void ExpectSamePair(const CandidatePair& a, const CandidatePair& b,
                    size_t k) {
  EXPECT_EQ(a.worker_index, b.worker_index) << "pair " << k;
  EXPECT_EQ(a.task_index, b.task_index) << "pair " << k;
  EXPECT_EQ(a.involves_predicted, b.involves_predicted) << "pair " << k;
  EXPECT_EQ(a.existence, b.existence) << "pair " << k;
  EXPECT_EQ(a.cost.mean(), b.cost.mean()) << "pair " << k;
  EXPECT_EQ(a.cost.variance(), b.cost.variance()) << "pair " << k;
  EXPECT_EQ(a.cost.lb(), b.cost.lb()) << "pair " << k;
  EXPECT_EQ(a.cost.ub(), b.cost.ub()) << "pair " << k;
  EXPECT_EQ(a.quality.mean(), b.quality.mean()) << "pair " << k;
  EXPECT_EQ(a.quality.variance(), b.quality.variance()) << "pair " << k;
  EXPECT_EQ(a.quality.lb(), b.quality.lb()) << "pair " << k;
  EXPECT_EQ(a.quality.ub(), b.quality.ub()) << "pair " << k;
}

void ExpectSameIds(PairIdSpan a, PairIdSpan b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]) << "slot " << k;
}

void ExpectSamePool(const PairPool& a, const PairPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ExpectSamePair(a.GetPair(static_cast<int32_t>(k)),
                   b.GetPair(static_cast<int32_t>(k)), k);
  }
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_workers(), b.num_workers());
  for (size_t j = 0; j < a.num_tasks(); ++j) {
    SCOPED_TRACE(testing::Message() << "task row " << j);
    ExpectSameIds(a.PairsByTask(static_cast<int32_t>(j)),
                  b.PairsByTask(static_cast<int32_t>(j)));
  }
  for (size_t i = 0; i < a.num_workers(); ++i) {
    SCOPED_TRACE(testing::Message() << "worker row " << i);
    const auto worker = static_cast<int32_t>(i);
    ExpectSameIds(PairIdsOfWorker(a, worker), PairIdsOfWorker(b, worker));
  }
}

/// Mixed current/predicted instance (worker and task side both).
ProblemInstance MixedInstance(Rng* rng, const QualityModel* quality,
                              int num_current, int num_pred, double budget) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_current; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.05, 0.5)));
  }
  for (int i = 0; i < num_pred; ++i) {
    workers.push_back(MakePredictedWorker(
        5000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.05, 0.5)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_current; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.2, 2.0)));
  }
  for (int j = 0; j < num_pred; ++j) {
    tasks.push_back(MakePredictedTask(
        5000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.2, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(num_current),
                         std::move(tasks), static_cast<size_t>(num_current),
                         quality, 1.0, budget);
}

// ------------------------------------------------------- storage reuse

/// `inst` without its lent storage: BuildPairPool on it owns a fresh one.
ProblemInstance Standalone(ProblemInstance inst) {
  inst.set_pool_storage(nullptr);
  return inst;
}

TEST(PoolStorageReuse, GrowAndShrinkLeaveNoStaleData) {
  // The simulator pattern: one storage, a different instance each epoch.
  // The instances grow, shrink, grow and shrink again, so later pools
  // leave stale slots of earlier ones past their live counts. Every pool
  // must equal a standalone build, CSR rows included.
  const RangeQualityModel quality(1.0, 2.0, 7);
  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    Rng rng(33);
    PairPoolStorage storage;
    for (const int workers : {60, 15, 45, 10}) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, " << workers << " workers");
      ProblemInstance inst =
          MixedInstance(&rng, &quality, workers, workers / 5 + 1, 6.0);
      inst.set_thread_pool(runner.pool());
      inst.set_pool_storage(&storage);
      const PairPool reused = BuildPairPool(inst);
      ASSERT_GT(reused.Stats().predicted_pairs, 0);
      ExpectSamePool(reused, BuildPairPool(Standalone(inst)));
    }
  }
}

TEST(PoolStorageReuse, WarmRebuildKeepsEveryVectorInPlace) {
  // Rebuilding the same instance into a warm storage reallocates nothing:
  // every column, CSR array and scratch vector keeps its data().
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(91);
  const ProblemInstance base = MixedInstance(&rng, &quality, 60, 10, 6.0);
  ASSERT_GE(base.workers().size(), kMinParallelWorkers);
  const auto addresses = [](const PairPoolStorage& s) {
    return std::vector<const void*>{
        s.worker.data(),       s.task.data(),         s.cost_mean.data(),
        s.cost_var.data(),     s.cost_lb.data(),      s.cost_ub.data(),
        s.fixed_quality.data(), s.qkind.data(),       s.task_offsets.data(),
        s.by_task.data(),      s.candidates.data(),   s.pair_offsets.data(),
        s.task_moments.data(), s.task_cursor.data()};
  };
  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    PairPoolStorage storage;
    ProblemInstance inst = base;
    inst.set_thread_pool(runner.pool());
    inst.set_pool_storage(&storage);
    (void)BuildPairPool(inst);
    const std::vector<const void*> warm = addresses(storage);
    for (const void* data : warm) ASSERT_NE(data, nullptr);
    for (int epoch = 1; epoch < 4; ++epoch) {
      const PairPool pool = BuildPairPool(inst);
      EXPECT_EQ(addresses(storage), warm)
          << "epoch " << epoch << ", " << threads << " threads";
    }
  }
}

TEST(PoolStorageDeathTest, OneLivePoolPerStorage) {
  // A second build into a storage that still backs a live pool would
  // overwrite that pool's columns, so it fails a check. The pool hands
  // the storage back when destroyed; a moved-from pool hands back
  // nothing.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(5);
  ProblemInstance inst = MixedInstance(&rng, &quality, 20, 4, 6.0);
  PairPoolStorage storage;
  inst.set_pool_storage(&storage);
  std::optional<PairPool> live;
  {
    PairPool first = BuildPairPool(inst);
    EXPECT_DEATH((void)BuildPairPool(inst), "still backs a live pool");
    live.emplace(std::move(first));
  }  // the moved-from `first` dies here
  EXPECT_TRUE(storage.in_use);
  EXPECT_DEATH((void)BuildPairPool(inst), "still backs a live pool");
  live.reset();
  EXPECT_FALSE(storage.in_use);
  ExpectSamePool(BuildPairPool(inst), BuildPairPool(Standalone(inst)));
}

// ---------------------------------------------------------- stats sink

TEST(PairPoolTest, StatsFinalWhenBuildReturns) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(17);
  ProblemInstance inst = MixedInstance(&rng, &quality, 20, 4, 6.0);
  PairPoolStats stats;
  inst.set_pool_stats(&stats);
  const PairPool pool = BuildPairPool(inst);

  // The sink is filled while the pool is still alive.
  int64_t predicted = 0;
  for (size_t k = 0; k < pool.size(); ++k) {
    if (pool.InvolvesPredicted(static_cast<int32_t>(k))) ++predicted;
  }
  ASSERT_GT(predicted, 0);
  EXPECT_EQ(stats.pairs, static_cast<int64_t>(pool.size()));
  EXPECT_EQ(stats.predicted_pairs, predicted);
  EXPECT_EQ(stats.pool_bytes, pool.Stats().pool_bytes);
  EXPECT_GT(stats.pool_bytes, 0);
  EXPECT_GT(stats.build_seconds, 0.0);
}

// ------------------------------------------------------ filled columns

/// Folds the bytes of `value` into the FNV-1a hash `*h`.
template <typename T>
void FnvMix(uint64_t* h, T value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    *h ^= b;
    *h *= 1099511628211ull;
  }
}

/// Folds the bit patterns of every column the fill writes into `h`:
/// worker, task, the four cost columns, fixed quality (0 for pairs with a
/// predicted endpoint) and kind.
uint64_t FoldFilledColumns(const PairPool& pool, uint64_t h) {
  for (size_t k = 0; k < pool.size(); ++k) {
    const int32_t id = static_cast<int32_t>(k);
    const PairQualityKind kind = pool.QualityKind(id);
    FnvMix(&h, pool.WorkerIndex(id));
    FnvMix(&h, pool.TaskIndex(id));
    FnvMix(&h, pool.CostMean(id));
    FnvMix(&h, pool.CostVariance(id));
    FnvMix(&h, pool.CostLb(id));
    FnvMix(&h, pool.CostUb(id));
    FnvMix(&h, kind == PairQualityKind::kCurrent ? pool.QualityMean(id) : 0.0);
    FnvMix(&h, static_cast<uint8_t>(kind));
  }
  return h;
}

TEST(BuildPairPoolTest, ColumnFingerprintIsPinned) {
  // Produced by this test (it prints the hash it got on a mismatch) on the
  // fill that called the two-box DistanceBetween for every pair, before
  // the fill took per-entity box moments. Any change to a cost, quality
  // or kind bit of a filled pair moves it.
  constexpr uint64_t kExpected = 0x7b9e3ecf5e4d18ddull;
  const RangeQualityModel quality(1.0, 2.0, 7);
  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    Rng rng(20);
    uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    int64_t kinds[4] = {0, 0, 0, 0};
    for (int round = 0; round < 4; ++round) {
      ProblemInstance inst = testing_util::RandomMixedInstance(
          &rng, &quality, 40, 40, 12, 12, /*velocity_hi=*/0.5,
          /*deadline_hi=*/2.0, /*unit_price=*/10.0, /*budget=*/50.0);
      ASSERT_GE(inst.workers().size(), kMinParallelWorkers);
      inst.set_thread_pool(runner.pool());
      const PairPool pool = BuildPairPool(inst);
      for (size_t k = 0; k < pool.size(); ++k) {
        ++kinds[static_cast<size_t>(
            pool.QualityKind(static_cast<int32_t>(k)))];
      }
      h = FoldFilledColumns(pool, h);
    }
    for (const int64_t n : kinds) EXPECT_GT(n, 0) << "every kind is pinned";
    EXPECT_EQ(h, kExpected) << threads << " threads: got 0x" << std::hex << h;
  }
}

TEST(BuildPairPoolTest, CostColumnsEqualDistanceBetween) {
  // Every pair's cost columns are bit-equal to the two-box definition,
  // including boxes clipped to a zero-width axis at the [0,1] border
  // (UniformRawMoment's lb == ub branch inside a non-point box).
  const RangeQualityModel quality(1.0, 2.0, 7);
  const double unit_price = 10.0;
  Rng rng(31);
  const ProblemInstance base = testing_util::RandomMixedInstance(
      &rng, &quality, 30, 30, 10, 10, /*velocity_hi=*/0.6,
      /*deadline_hi=*/2.0, unit_price, /*budget=*/50.0);
  std::vector<Worker> workers = base.workers();
  std::vector<Task> tasks = base.tasks();
  const BBox x_at_one = BBox::KernelBox({1.2, 0.4}, 0.2, 0.1);
  const BBox x_at_zero = BBox::KernelBox({-0.1, 0.6}, 0.1, 0.2);
  const BBox y_at_one = BBox::KernelBox({0.3, 1.05}, 0.1, 0.05);
  ASSERT_EQ(x_at_one.WidthX(), 0.0);
  ASSERT_EQ(x_at_zero.WidthX(), 0.0);
  ASSERT_EQ(y_at_one.WidthY(), 0.0);
  ASSERT_FALSE(x_at_one.IsPoint());
  for (const BBox& box : {x_at_one, x_at_zero, y_at_one}) {
    workers.push_back(MakePredictedWorker(
        static_cast<WorkerId>(9000 + workers.size()), box, 2.0));
    tasks.push_back(MakePredictedTask(
        static_cast<TaskId>(9000 + tasks.size()), box, 2.5));
  }
  ProblemInstance inst(std::move(workers), base.num_current_workers(),
                       std::move(tasks), base.num_current_tasks(), &quality,
                       unit_price, 50.0);
  ASSERT_TRUE(inst.Validate().ok());
  ASSERT_GE(inst.workers().size(), kMinParallelWorkers);

  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    inst.set_thread_pool(runner.pool());
    const PairPool pool = BuildPairPool(inst);
    int64_t clipped_pairs = 0;
    for (size_t k = 0; k < pool.size(); ++k) {
      const int32_t id = static_cast<int32_t>(k);
      const BBox& w =
          inst.workers()[static_cast<size_t>(pool.WorkerIndex(id))].location;
      const BBox& t =
          inst.tasks()[static_cast<size_t>(pool.TaskIndex(id))].location;
      const Uncertain want =
          DistanceBetween(w, t).AffineTransform(unit_price, 0.0);
      EXPECT_EQ(pool.CostMean(id), want.mean()) << "pair " << k;
      EXPECT_EQ(pool.CostVariance(id), want.variance()) << "pair " << k;
      EXPECT_EQ(pool.CostLb(id), want.lb()) << "pair " << k;
      EXPECT_EQ(pool.CostUb(id), want.ub()) << "pair " << k;
      const bool clipped = (!w.IsPoint() && w.WidthX() * w.WidthY() == 0.0) ||
                           (!t.IsPoint() && t.WidthX() * t.WidthY() == 0.0);
      if (clipped) ++clipped_pairs;
    }
    // At least the three clipped workers (velocity 2) with the three
    // clipped tasks (deadline 2.5): that reach spans the unit square.
    EXPECT_GE(clipped_pairs, 9) << threads << " threads";
  }
}

TEST(PairPoolTest, HandBuiltPoolRoundTrips) {
  PairPoolBuilder builder(3, 2);
  CandidatePair p;
  p.worker_index = 2;
  p.task_index = 1;
  p.cost = Uncertain(2.0, 0.5, 1.0, 3.0);
  p.quality = Uncertain(1.5, 0.25, 1.0, 2.0);
  p.existence = 0.75;
  p.involves_predicted = true;
  builder.Add(p);
  const PairPool pool = std::move(builder).Build();
  ASSERT_EQ(pool.size(), 1u);
  const CandidatePair back = pool.GetPair(0);
  ExpectSamePair(p, back, 0);
  EXPECT_EQ(pool.PairsByTask(1).size(), 1u);
  EXPECT_TRUE(pool.PairsByTask(0).empty());
  EXPECT_EQ(PairIdsOfWorker(pool, 2), std::vector<int32_t>{0});
  // The thinned variant still works through the view.
  const Uncertain thinned = pool.pair(0).ExistenceThinnedQuality();
  EXPECT_DOUBLE_EQ(thinned.mean(), 1.5 * 0.75);
}

}  // namespace
}  // namespace mqa

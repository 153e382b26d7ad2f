// The columnar arena-backed PairPool and its lazy-statistics contract:
//
//  * lazy vs. eager materialization of the Cases 1-3 quality/existence
//    statistics is byte-identical at the pool level and at the
//    assignment level, across {greedy, D&C, random, exact} x {1, 2, 4, 8}
//    threads x index backends;
//  * a PairArena reused across "epochs" (Reset between builds, the
//    simulator's pattern) never leaks stale data into a later pool and
//    stops allocating once warm;
//  * the lazy counters report what the consuming algorithm touched.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/divide_conquer.h"
#include "core/exact_assigner.h"
#include "core/greedy.h"
#include "core/pool_delta.h"
#include "core/random_assigner.h"
#include "core/valid_pairs.h"
#include "exec/pair_arena.h"
#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"
#include "index/spatial_index.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

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

void ExpectSamePool(const PairPool& a, const PairPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ExpectSamePair(a.GetPair(static_cast<int32_t>(k)),
                   b.GetPair(static_cast<int32_t>(k)), k);
  }
}

void ExpectSameAssignment(const AssignmentResult& a,
                          const AssignmentResult& b, const char* what) {
  EXPECT_EQ(a.pairs, b.pairs) << what;
  EXPECT_EQ(a.total_quality, b.total_quality) << what;
  EXPECT_EQ(a.total_cost, b.total_cost) << what;
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

// ------------------------------------------------- lazy == eager, pools

TEST(LazyStatsProperty, PoolValuesMatchEagerAcrossBackends) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(211);
  for (int trial = 0; trial < 10; ++trial) {
    const ProblemInstance inst =
        MixedInstance(&rng, &quality, static_cast<int>(rng.UniformInt(5, 40)),
                      static_cast<int>(rng.UniformInt(0, 12)),
                      rng.Uniform(1.0, 10.0));
    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid}) {
      PairPoolOptions lazy_options;
      lazy_options.backend = backend;
      PairPoolOptions eager_options = lazy_options;
      eager_options.eager_stats = true;
      const PairPool lazy = BuildPairPool(inst, lazy_options);
      const PairPool eager = BuildPairPool(inst, eager_options);
      ExpectSamePool(lazy, eager);
    }
  }
}

// -------------------------------------- lazy == eager, all assigners

class LazyVsEagerAssignerProperty
    : public ::testing::TestWithParam<AssignerKind> {};

TEST_P(LazyVsEagerAssignerProperty, AssignmentsByteIdentical) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  Rng rng(47);
  const bool exact = GetParam() == AssignerKind::kExact;
  for (int trial = 0; trial < (exact ? 6 : 4); ++trial) {
    // The exact oracle is exponential: keep its instances tiny.
    const int num_current =
        exact ? static_cast<int>(rng.UniformInt(2, 8))
              : static_cast<int>(rng.UniformInt(40, 120));
    const int num_pred =
        exact ? 0 : static_cast<int>(rng.UniformInt(0, 25));
    const ProblemInstance inst = MixedInstance(
        &rng, &quality, num_current, num_pred, rng.Uniform(1.0, 10.0));

    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid}) {
      for (const int threads : {1, 2, 4, 8}) {
        ParallelRunner runner(threads);
        PairPoolOptions lazy_options;
        lazy_options.backend = backend;
        lazy_options.thread_pool = runner.pool();
        PairPoolOptions eager_options = lazy_options;
        eager_options.eager_stats = true;

        AssignmentResult lazy;
        AssignmentResult eager;
        switch (GetParam()) {
          case AssignerKind::kGreedy:
            lazy = RunGreedy(inst, 0.5, lazy_options);
            eager = RunGreedy(inst, 0.5, eager_options);
            break;
          case AssignerKind::kDivideConquer:
            lazy = RunDivideConquer(inst, 0.5, 0, lazy_options);
            eager = RunDivideConquer(inst, 0.5, 0, eager_options);
            break;
          case AssignerKind::kRandom:
            lazy = RunRandom(inst, 0.5, 99, lazy_options);
            eager = RunRandom(inst, 0.5, 99, eager_options);
            break;
          case AssignerKind::kExact: {
            const auto lazy_r = RunExact(inst, kExactMaxEntities,
                                         lazy_options);
            const auto eager_r = RunExact(inst, kExactMaxEntities,
                                          eager_options);
            ASSERT_TRUE(lazy_r.ok()) << lazy_r.status();
            ASSERT_TRUE(eager_r.ok()) << eager_r.status();
            lazy = lazy_r.value();
            eager = eager_r.value();
            break;
          }
        }
        ExpectSameAssignment(lazy, eager, AssignerKindToString(GetParam()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, LazyVsEagerAssignerProperty,
                         ::testing::Values(AssignerKind::kGreedy,
                                           AssignerKind::kDivideConquer,
                                           AssignerKind::kRandom,
                                           AssignerKind::kExact),
                         [](const ::testing::TestParamInfo<AssignerKind>& i) {
                           std::string name = AssignerKindToString(i.param);
                           for (char& c : name) {
                             if (c == '&') c = 'n';
                           }
                           return name;
                         });

// ------------------------------------------------------- lazy counters

TEST(LazyStatsCounters, RandomNeverSamples) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(5);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  {
    // RANDOM touches only indices and cost moments.
    const AssignmentResult result = RunRandom(inst, 0.5, 7, options);
    (void)result;
  }
  ASSERT_GT(stats.predicted_pairs, 0);
  EXPECT_FALSE(stats.stats_materialized);
  EXPECT_DOUBLE_EQ(stats.lazy_skipped_fraction, 1.0);
}

TEST(LazyStatsCounters, GreedySamplesWhatItCompares) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(6);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  {
    const AssignmentResult result = RunGreedy(inst, 0.5, options);
    (void)result;
  }
  ASSERT_GT(stats.predicted_pairs, 0);
  // The greedy quality sort touches the distribution of every pair the
  // quick budget check keeps (here all of them).
  EXPECT_TRUE(stats.stats_materialized);
  EXPECT_DOUBLE_EQ(stats.lazy_skipped_fraction, 0.0);
  EXPECT_GT(stats.pool_bytes, 0);
  EXPECT_GT(stats.arena_slabs, 0);
}

// ----------------------------------------------------- arena lifecycle

TEST(PairArenaTest, AllocateAlignAndReset) {
  PairArena arena(/*min_slab_bytes=*/128);
  void* a = arena.Allocate(100, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  // Larger than any slab: gets its own.
  void* b = arena.Allocate(1000, 8);
  ASSERT_NE(b, nullptr);
  const size_t capacity = arena.capacity_bytes();
  EXPECT_GE(arena.allocated_bytes(), 1100u);

  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), capacity) << "slabs are retained";
  EXPECT_GE(arena.peak_bytes(), 1100u) << "peak survives Reset";

  // Warm re-allocation reuses the retained slabs.
  (void)arena.Allocate(100, 8);
  (void)arena.Allocate(1000, 8);
  EXPECT_EQ(arena.capacity_bytes(), capacity) << "no growth when warm";
}

TEST(PairArenaTest, ShardArenasResetWithParent) {
  PairArena arena(/*min_slab_bytes=*/128);
  PairArena* shard = arena.shard(2);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(arena.num_shards(), 3u);
  (void)shard->Allocate(64, 8);
  EXPECT_GT(arena.allocated_bytes(), 0u) << "shard bytes aggregate";
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.shard(2), shard) << "shard arenas are stable";
}

TEST(ArenaReuse, NoStaleDataAcrossEpochs) {
  // The simulator pattern: one arena, Reset between epochs, a different
  // instance each epoch. Every reused-arena pool must equal a pool built
  // with a private arena from scratch.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng reuse_rng(33);
  Rng fresh_rng(33);  // identical instance stream
  PairArena arena;
  size_t warm_capacity = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const ProblemInstance inst_a = MixedInstance(
        &reuse_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);
    const ProblemInstance inst_b = MixedInstance(
        &fresh_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);

    arena.Reset();
    PairPoolOptions reuse_options;
    reuse_options.arena = &arena;
    const PairPool reused = BuildPairPool(inst_a, reuse_options);
    const PairPool fresh = BuildPairPool(inst_b, PairPoolOptions{});
    ExpectSamePool(reused, fresh);

    // Also exercise the lazy path fully on the reused pool.
    reused.MaterializeAllStats();
    fresh.MaterializeAllStats();
    ExpectSamePool(reused, fresh);

    if (epoch == 5) warm_capacity = arena.capacity_bytes();
    if (epoch > 5) {
      EXPECT_GE(arena.capacity_bytes(), warm_capacity);
    }
  }
}

TEST(ArenaReuse, SteadyStateStopsAllocating) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(91);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 60, 10, 6.0);
  PairArena arena;
  PairPoolOptions options;
  options.arena = &arena;
  size_t capacity_after_first = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    arena.Reset();
    const PairPool pool = BuildPairPool(inst, options);
    pool.MaterializeAllStats();
    if (epoch == 0) {
      capacity_after_first = arena.capacity_bytes();
    } else {
      EXPECT_EQ(arena.capacity_bytes(), capacity_after_first)
          << "same workload must not grow a warm arena (epoch " << epoch
          << ")";
    }
  }
}

// -------------------------------------------------- pool move + sink

TEST(PairPoolTest, MoveTransfersSinkOnce) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(17);
  const ProblemInstance inst = MixedInstance(&rng, &quality, 20, 4, 6.0);
  PairPoolStats stats;
  PairPoolOptions options;
  options.stats_sink = &stats;
  int64_t pairs = 0;
  {
    PairPool pool = BuildPairPool(inst, options);
    pairs = static_cast<int64_t>(pool.size());
    PairPool moved = std::move(pool);
    // The moved-from pool dying must not clobber the sink...
    EXPECT_EQ(stats.pairs, 0);
    (void)moved;
  }
  // ...the owner flushes it exactly once, at destruction.
  EXPECT_EQ(stats.pairs, pairs);
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
  EXPECT_EQ(pool.PairsByWorker(2).size(), 1u);
  // The thinned variant still works through the view.
  const Uncertain thinned = pool.pair(0).ExistenceThinnedQuality();
  EXPECT_DOUBLE_EQ(thinned.mean(), 1.5 * 0.75);
}

// ------------------------- delta-maintained pool == from-scratch build

struct DeltaPoolCase {
  int threads;
  IndexBackend backend;
  double churn;  // exact per-epoch fraction of each population replaced
};

std::string DeltaCaseName(const ::testing::TestParamInfo<DeltaPoolCase>& info) {
  const DeltaPoolCase& c = info.param;
  std::string name = IndexBackendToString(c.backend);
  name += "_t" + std::to_string(c.threads);
  name += "_churn" + std::to_string(static_cast<int>(c.churn * 100 + 0.5));
  return name;
}

class DeltaPoolProperty : public ::testing::TestWithParam<DeltaPoolCase> {};

// Evolves worker/task populations across epochs under the simulators'
// carryover contract (order-preserving compaction, arrivals appended,
// deadlines shrink-only) at an exactly controlled churn fraction, and
// checks the PoolDeltaCache-assisted build is byte-identical to a
// from-scratch build of the same instance — the core invariant of the
// incremental epoch pipeline (core/pool_delta.h).
TEST_P(DeltaPoolProperty, DeltaBuildByteIdenticalToScratch) {
  const DeltaPoolCase& c = GetParam();
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(401 + static_cast<uint64_t>(c.churn * 100.0));

  constexpr int kPopulation = 36;
  constexpr int kPredicted = 4;
  constexpr int kEpochs = 6;
  std::vector<Worker> cur_workers;
  std::vector<Task> cur_tasks;
  int64_t next_id = 0;
  auto new_worker = [&] {
    return MakeWorker(next_id++, rng.Uniform(), rng.Uniform(),
                      rng.Uniform(0.05, 0.5));
  };
  auto new_task = [&] {
    return MakeTask(next_id++, rng.Uniform(), rng.Uniform(),
                    rng.Uniform(0.6, 2.0));
  };
  for (int i = 0; i < kPopulation; ++i) cur_workers.push_back(new_worker());
  for (int j = 0; j < kPopulation; ++j) cur_tasks.push_back(new_task());

  // Exactly round(churn * n) departures per epoch: (i * 7 + epoch) % n
  // walks every residue once (gcd(7, 36) == 1), so comparing against k
  // selects k distinct, deterministic positions.
  const int replaced =
      static_cast<int>(c.churn * kPopulation + 0.5);
  auto departs = [&](size_t i, int epoch) {
    return static_cast<int>((i * 7 + static_cast<size_t>(epoch)) %
                            kPopulation) < replaced;
  };

  PoolDeltaCache cache(/*apply_deltas=*/true);
  std::unique_ptr<ThreadPool> thread_pool;
  if (c.threads > 1) thread_pool = std::make_unique<ThreadPool>(c.threads);

  int delta_epochs = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch > 0) {
      std::vector<Worker> kept_workers;
      for (size_t i = 0; i < cur_workers.size(); ++i) {
        if (!departs(i, epoch)) kept_workers.push_back(cur_workers[i]);
      }
      while (kept_workers.size() < kPopulation) {
        kept_workers.push_back(new_worker());
      }
      cur_workers = std::move(kept_workers);

      std::vector<Task> kept_tasks;
      for (size_t j = 0; j < cur_tasks.size(); ++j) {
        if (departs(j, epoch + 3)) continue;
        Task t = cur_tasks[j];
        t.deadline -= 0.08;  // shrink-only aging, stays positive
        kept_tasks.push_back(t);
      }
      while (kept_tasks.size() < kPopulation) {
        kept_tasks.push_back(new_task());
      }
      cur_tasks = std::move(kept_tasks);
    }

    // Instance vectors: current prefix + fresh predicted tail, identical
    // bytes for the scratch and delta instances.
    std::vector<Worker> inst_workers = cur_workers;
    std::vector<Task> inst_tasks = cur_tasks;
    for (int k = 0; k < kPredicted; ++k) {
      inst_workers.push_back(MakePredictedWorker(
          next_id++,
          BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                          rng.Uniform(0.0, 0.15), rng.Uniform(0.0, 0.15)),
          rng.Uniform(0.05, 0.5)));
      inst_tasks.push_back(MakePredictedTask(
          next_id++,
          BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                          rng.Uniform(0.0, 0.15), rng.Uniform(0.0, 0.15)),
          rng.Uniform(0.6, 2.0)));
    }
    const size_t ncw = cur_workers.size();
    const size_t nct = cur_tasks.size();

    // Prebuilt indexes, the simulator's shape: task entries bounded by
    // deadline, worker entries bounded by velocity.
    std::vector<IndexEntry> task_entries;
    for (size_t j = 0; j < inst_tasks.size(); ++j) {
      task_entries.push_back(IndexEntry{static_cast<int64_t>(j),
                                        inst_tasks[j].location,
                                        inst_tasks[j].deadline});
    }
    std::unique_ptr<SpatialIndex> task_index = CreateSpatialIndex(c.backend);
    task_index->BulkLoad(task_entries);
    std::vector<IndexEntry> worker_entries;
    for (size_t i = 0; i < inst_workers.size(); ++i) {
      worker_entries.push_back(IndexEntry{static_cast<int64_t>(i),
                                          inst_workers[i].location,
                                          inst_workers[i].velocity});
    }
    std::unique_ptr<SpatialIndex> worker_index =
        CreateSpatialIndex(c.backend);
    worker_index->BulkLoad(worker_entries);

    cache.BeginEpoch(inst_workers, ncw, inst_tasks, nct);

    PairPoolOptions options;
    options.task_index = task_index.get();
    options.thread_pool = thread_pool.get();

    std::vector<Worker> scratch_workers = inst_workers;
    std::vector<Task> scratch_tasks = inst_tasks;
    const ProblemInstance scratch_inst(std::move(scratch_workers), ncw,
                                       std::move(scratch_tasks), nct,
                                       &quality, 1.0, 6.0);
    const PairPool scratch = BuildPairPool(scratch_inst, options);

    ProblemInstance delta_inst(std::move(inst_workers), ncw,
                               std::move(inst_tasks), nct, &quality, 1.0,
                               6.0);
    delta_inst.set_worker_index(worker_index.get());
    delta_inst.set_pool_delta(&cache);
    const PairPool delta = BuildPairPool(delta_inst, options);

    ExpectSamePool(scratch, delta);

    const PoolDeltaStats& ds = cache.stats();
    if (epoch == 0) {
      EXPECT_FALSE(ds.applied) << "no snapshot to delta against yet";
    } else {
      EXPECT_TRUE(ds.applied) << "epoch " << epoch;
      if (ds.applied) ++delta_epochs;
      if (c.churn == 0.0) {
        EXPECT_EQ(ds.rows_reused, static_cast<int64_t>(ncw))
            << "zero churn must replay every current row (epoch " << epoch
            << ")";
      }
      if (c.churn >= 1.0) {
        EXPECT_EQ(ds.rows_reused, 0)
            << "full churn has nothing to replay (epoch " << epoch << ")";
      }
    }
  }
  EXPECT_EQ(delta_epochs, kEpochs - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DeltaPoolProperty,
    ::testing::Values(
        DeltaPoolCase{1, IndexBackend::kGrid, 0.0},
        DeltaPoolCase{1, IndexBackend::kGrid, 0.05},
        DeltaPoolCase{1, IndexBackend::kGrid, 0.5},
        DeltaPoolCase{1, IndexBackend::kGrid, 1.0},
        DeltaPoolCase{4, IndexBackend::kGrid, 0.0},
        DeltaPoolCase{4, IndexBackend::kGrid, 0.05},
        DeltaPoolCase{4, IndexBackend::kGrid, 0.5},
        DeltaPoolCase{4, IndexBackend::kGrid, 1.0},
        DeltaPoolCase{1, IndexBackend::kRTree, 0.0},
        DeltaPoolCase{1, IndexBackend::kRTree, 0.05},
        DeltaPoolCase{1, IndexBackend::kRTree, 0.5},
        DeltaPoolCase{1, IndexBackend::kRTree, 1.0},
        DeltaPoolCase{4, IndexBackend::kRTree, 0.05},
        DeltaPoolCase{4, IndexBackend::kRTree, 0.5}),
    DeltaCaseName);

}  // namespace
}  // namespace mqa

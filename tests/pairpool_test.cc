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
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/divide_conquer.h"
#include "core/exact_assigner.h"
#include "core/greedy.h"
#include "core/random_assigner.h"
#include "core/valid_pairs.h"
#include "exec/pair_arena.h"
#include "exec/parallel_runner.h"
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
    const ProblemInstance base_inst = MixedInstance(
        &rng, &quality, num_current, num_pred, rng.Uniform(1.0, 10.0));

    for (const IndexBackend backend :
         {IndexBackend::kBruteForce, IndexBackend::kGrid}) {
      for (const int threads : {1, 2, 4, 8}) {
        ParallelRunner runner(threads);
        ProblemInstance inst = base_inst;
        inst.set_thread_pool(runner.pool());
        PairPoolOptions lazy_options;
        lazy_options.backend = backend;
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
  ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  inst.set_pool_stats(&stats);
  {
    // RANDOM touches only indices and cost moments.
    const AssignmentResult result = RunRandom(inst, 0.5, 7);
    (void)result;
  }
  ASSERT_GT(stats.predicted_pairs, 0);
  EXPECT_FALSE(stats.stats_materialized);
  EXPECT_DOUBLE_EQ(stats.lazy_skipped_fraction, 1.0);
}

TEST(LazyStatsCounters, GreedySamplesWhatItCompares) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(6);
  ProblemInstance inst = MixedInstance(&rng, &quality, 40, 10, 8.0);
  PairPoolStats stats;
  inst.set_pool_stats(&stats);
  {
    const AssignmentResult result = RunGreedy(inst, 0.5);
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

TEST(PairArenaTest, SubArenasResetWithParent) {
  PairArena arena(/*min_slab_bytes=*/128);
  PairArena* sub = arena.sub_arena(2);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(arena.num_sub_arenas(), 3u);
  (void)sub->Allocate(64, 8);
  EXPECT_GT(arena.allocated_bytes(), 0u) << "sub-arena bytes aggregate";
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.sub_arena(2), sub) << "sub-arenas are stable";
}

TEST(PairArenaDeathTest, WritePastSlabEndFaults) {
  // Every slab is followed by a guard page: the slab's last byte is
  // writable, the next one faults.
  PairArena arena(/*min_slab_bytes=*/128);
  auto* first = static_cast<volatile unsigned char*>(arena.Allocate(1, 1));
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(arena.slab_count(), 1u);
  const size_t slab_bytes = arena.capacity_bytes();
  first[slab_bytes - 1] = 1;
  EXPECT_DEATH(first[slab_bytes] = 1, "");
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
    ProblemInstance inst_a = MixedInstance(
        &reuse_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);
    const ProblemInstance inst_b = MixedInstance(
        &fresh_rng, &quality, 30 + 7 * epoch, 5 + epoch, 6.0);

    arena.Reset();
    inst_a.set_pair_arena(&arena);
    const PairPool reused = BuildPairPool(inst_a, PairPoolOptions{});
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
  // At 4 threads the scan fills one scratch sub-arena per worker range;
  // those must reach a steady state too.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(91);
  const ProblemInstance base_inst =
      MixedInstance(&rng, &quality, 60, 10, 6.0);
  ASSERT_GE(base_inst.workers().size(), kMinParallelWorkers);
  for (const int threads : {1, 4}) {
    ParallelRunner runner(threads);
    PairArena arena;
    ProblemInstance inst = base_inst;
    inst.set_thread_pool(runner.pool());
    inst.set_pair_arena(&arena);
    size_t capacity_after_first = 0;
    for (int epoch = 0; epoch < 5; ++epoch) {
      arena.Reset();
      const PairPool pool = BuildPairPool(inst, PairPoolOptions{});
      pool.MaterializeAllStats();
      if (epoch == 0) {
        capacity_after_first = arena.capacity_bytes();
        EXPECT_EQ(arena.num_sub_arenas(), static_cast<size_t>(threads));
      } else {
        EXPECT_EQ(arena.capacity_bytes(), capacity_after_first)
            << "same workload must not grow a warm arena (epoch " << epoch
            << ", " << threads << " threads)";
      }
    }
  }
}

// -------------------------------------------------- pool move + sink

TEST(PairPoolTest, MoveTransfersSinkOnce) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(17);
  ProblemInstance inst = MixedInstance(&rng, &quality, 20, 4, 6.0);
  PairPoolStats stats;
  inst.set_pool_stats(&stats);
  int64_t pairs = 0;
  {
    PairPool pool = BuildPairPool(inst, PairPoolOptions{});
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

}  // namespace
}  // namespace mqa

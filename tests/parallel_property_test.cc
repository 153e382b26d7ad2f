// The determinism contract of the parallel execution subsystem: pair
// pools, assignments, and simulator metrics must be *byte-identical* for
// num_threads in {1, 2, 4, 8} — thread count changes wall-clock time and
// nothing else. Every comparison below is exact (operator== on doubles):
// the parallel paths are constructed to run the same floating-point
// operations in the same order as the sequential ones, and these tests
// are the proof.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "index/task_index_cache.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::PairIdsOfWorker;

constexpr int kThreadCounts[] = {2, 4, 8};

void ExpectSameUncertain(const Uncertain& a, const Uncertain& b,
                         const char* what, size_t k) {
  EXPECT_EQ(a.mean(), b.mean()) << what << " mean, pair " << k;
  EXPECT_EQ(a.variance(), b.variance()) << what << " variance, pair " << k;
  EXPECT_EQ(a.lb(), b.lb()) << what << " lb, pair " << k;
  EXPECT_EQ(a.ub(), b.ub()) << what << " ub, pair " << k;
}

void ExpectSameSpan(const PairIdSpan& a, const PairIdSpan& b,
                    const char* what, size_t row) {
  ASSERT_EQ(a.size(), b.size()) << what << " row " << row;
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], b[k]) << what << " row " << row << " entry " << k;
  }
}

void ExpectSamePool(const PairPool& sequential, const PairPool& parallel) {
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t k = 0; k < sequential.size(); ++k) {
    const CandidatePair a = sequential.GetPair(static_cast<int32_t>(k));
    const CandidatePair b = parallel.GetPair(static_cast<int32_t>(k));
    EXPECT_EQ(a.worker_index, b.worker_index) << "pair " << k;
    EXPECT_EQ(a.task_index, b.task_index) << "pair " << k;
    EXPECT_EQ(a.involves_predicted, b.involves_predicted) << "pair " << k;
    EXPECT_EQ(a.existence, b.existence) << "pair " << k;
    ExpectSameUncertain(a.cost, b.cost, "cost", k);
    ExpectSameUncertain(a.quality, b.quality, "quality", k);
    ExpectSameUncertain(a.EffectiveQuality(), b.EffectiveQuality(),
                        "effective quality", k);
  }
  ASSERT_EQ(sequential.num_tasks(), parallel.num_tasks());
  for (size_t j = 0; j < sequential.num_tasks(); ++j) {
    ExpectSameSpan(sequential.PairsByTask(static_cast<int32_t>(j)),
                   parallel.PairsByTask(static_cast<int32_t>(j)), "by-task",
                   j);
  }
  ASSERT_EQ(sequential.num_workers(), parallel.num_workers());
  for (size_t i = 0; i < sequential.num_workers(); ++i) {
    const auto worker = static_cast<int32_t>(i);
    ExpectSameSpan(PairIdsOfWorker(sequential, worker),
                   PairIdsOfWorker(parallel, worker), "by-worker", i);
  }
}

void ExpectSameAssignment(const AssignmentResult& a,
                          const AssignmentResult& b) {
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.total_quality, b.total_quality);
  EXPECT_EQ(a.total_cost, b.total_cost);
}

/// A mixed current/predicted instance large enough to engage the parallel
/// builder (>= kMinParallelWorkers).
ProblemInstance MixedInstance(Rng* rng, const QualityModel* quality,
                              int num_workers, int num_tasks, int num_pred,
                              double velocity_hi, double budget) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.01, velocity_hi)));
  }
  for (int i = 0; i < num_pred; ++i) {
    workers.push_back(MakePredictedWorker(
        5000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.01, velocity_hi)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_tasks; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.1, 2.0)));
  }
  for (int j = 0; j < num_pred; ++j) {
    tasks.push_back(MakePredictedTask(
        5000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.15), rng->Uniform(0.0, 0.15)),
        rng->Uniform(0.1, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(num_workers),
                         std::move(tasks), static_cast<size_t>(num_tasks),
                         quality, 1.0, budget);
}

/// The hyperlocal regime: 600 workers with short reach over 500 current
/// and 60 predicted tasks, so most workers see only a few candidates.
ProblemInstance HyperlocalInstance(Rng* rng, const QualityModel* quality) {
  std::vector<Worker> workers;
  for (int i = 0; i < 600; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.02, 0.08)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < 500; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.2, 1.5)));
  }
  for (int j = 0; j < 60; ++j) {
    tasks.push_back(MakePredictedTask(
        5000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()}, 0.05, 0.05),
        rng->Uniform(0.2, 1.5)));
  }
  return ProblemInstance(std::move(workers), 600, std::move(tasks), 500,
                         quality, 1.0, 10.0);
}

/// `instance` with `pool` attached; the original stays pool-free so
/// references built from it never see the context under test.
ProblemInstance WithThreadPool(const ProblemInstance& instance,
                               ThreadPool* pool) {
  ProblemInstance copy = instance;
  copy.set_thread_pool(pool);
  return copy;
}

TEST(ParallelPairPoolProperty, PoolIsByteIdenticalAcrossThreadCounts) {
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(31);
  std::vector<ProblemInstance> inputs;
  for (int trial = 0; trial < 8; ++trial) {
    const double velocity_hi = rng.Uniform(0.05, 0.6);
    inputs.push_back(MixedInstance(
        &rng, &quality, static_cast<int>(rng.UniformInt(40, 250)),
        static_cast<int>(rng.UniformInt(20, 250)),
        static_cast<int>(rng.UniformInt(0, 40)), velocity_hi,
        rng.Uniform(1.0, 20.0)));
  }
  Rng hyperlocal_rng(77);
  inputs.push_back(HyperlocalInstance(&hyperlocal_rng, &quality));

  for (const ProblemInstance& inst : inputs) {
    ASSERT_GE(inst.workers().size(), kMinParallelWorkers)
        << "every input must take the parallel builder at >1 threads";
    const PairPool sequential = BuildPairPool(inst);
    for (const int threads : kThreadCounts) {
      ParallelRunner runner(threads);
      ExpectSamePool(sequential,
                     BuildPairPool(WithThreadPool(inst, runner.pool())));
    }
  }
}

TEST(ParallelPairPoolProperty, PrebuiltIndexPathMatchesToo) {
  // The simulator path: the epoch's TaskIndexCache view, queried
  // concurrently by every worker range.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(32);
  ProblemInstance inst =
      MixedInstance(&rng, &quality, 150, 150, 25, 0.3, 10.0);

  TaskIndexCache cache;
  cache.BeginInstance(inst.tasks());
  inst.set_task_index(cache.view());

  const PairPool sequential = BuildPairPool(inst);
  for (const int threads : kThreadCounts) {
    ParallelRunner runner(threads);
    ExpectSamePool(sequential,
                   BuildPairPool(WithThreadPool(inst, runner.pool())));
  }
}

class ParallelAssignerProperty
    : public ::testing::TestWithParam<AssignerKind> {};

TEST_P(ParallelAssignerProperty, AssignmentIsByteIdenticalAcrossThreads) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  Rng rng(47);
  for (int trial = 0; trial < 4; ++trial) {
    const ProblemInstance inst = MixedInstance(
        &rng, &quality, static_cast<int>(rng.UniformInt(60, 200)),
        static_cast<int>(rng.UniformInt(60, 200)),
        static_cast<int>(rng.UniformInt(0, 30)), rng.Uniform(0.05, 0.5),
        rng.Uniform(2.0, 15.0));

    AssignerOptions base;
    base.seed = 99;
    auto sequential = CreateAssigner(GetParam(), base);
    const auto expected = sequential->Assign(inst);
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (const int threads : kThreadCounts) {
      ParallelRunner runner(threads);
      auto parallel = CreateAssigner(GetParam(), base);
      const auto got =
          parallel->Assign(WithThreadPool(inst, runner.pool()));
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameAssignment(expected.value(), got.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ParallelAssignerProperty,
                         ::testing::Values(AssignerKind::kGreedy,
                                           AssignerKind::kDivideConquer,
                                           AssignerKind::kRandom),
                         [](const ::testing::TestParamInfo<AssignerKind>& i) {
                           std::string name = AssignerKindToString(i.param);
                           for (char& c : name) {
                             if (c == '&') c = 'n';
                           }
                           return name;
                         });

void ExpectSameSummary(const SimulationSummary& a,
                       const SimulationSummary& b) {
  ASSERT_EQ(a.per_instance.size(), b.per_instance.size());
  for (size_t p = 0; p < a.per_instance.size(); ++p) {
    const InstanceMetrics& ma = a.per_instance[p];
    const InstanceMetrics& mb = b.per_instance[p];
    EXPECT_EQ(ma.workers_available, mb.workers_available) << "instance " << p;
    EXPECT_EQ(ma.tasks_available, mb.tasks_available) << "instance " << p;
    EXPECT_EQ(ma.predicted_workers, mb.predicted_workers) << "instance " << p;
    EXPECT_EQ(ma.predicted_tasks, mb.predicted_tasks) << "instance " << p;
    EXPECT_EQ(ma.assigned, mb.assigned) << "instance " << p;
    EXPECT_EQ(ma.quality, mb.quality) << "instance " << p;
    EXPECT_EQ(ma.cost, mb.cost) << "instance " << p;
    EXPECT_EQ(ma.worker_prediction_error, mb.worker_prediction_error)
        << "instance " << p;
    EXPECT_EQ(ma.task_prediction_error, mb.task_prediction_error)
        << "instance " << p;
    // D&C folds its per-subproblem counts on the calling thread, so the
    // greedy loop's counts are thread-count independent too.
    EXPECT_EQ(ma.greedy_iterations, mb.greedy_iterations) << "instance " << p;
    EXPECT_EQ(ma.greedy_candidates, mb.greedy_candidates) << "instance " << p;
    EXPECT_EQ(ma.greedy_max_candidates, mb.greedy_max_candidates)
        << "instance " << p;
    EXPECT_EQ(ma.greedy_retired_pairs, mb.greedy_retired_pairs)
        << "instance " << p;
  }
  EXPECT_EQ(a.total_quality, b.total_quality);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_assigned, b.total_assigned);
}

// The full pipeline through the simulator, including the per-epoch
// TaskIndexCache queried concurrently by worker ranges.
TEST(ParallelSimulatorProperty, MetricsAreByteIdenticalAcrossThreads) {
  const ArrivalStream stream =
      testing_util::SmallSyntheticStream(400, 400, 5, 23);
  const RangeQualityModel quality(1.0, 2.0, 13);

  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
    const SimulatorConfig config = testing_util::PropertySimConfig();

    Simulator sequential(config, &quality);
    auto seq_assigner = CreateAssigner(kind, {.seed = 5});
    const auto expected = sequential.Run(stream, seq_assigner.get());
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (const int threads : kThreadCounts) {
      SimulatorConfig par_config = config;
      par_config.num_threads = threads;
      Simulator parallel(par_config, &quality);
      auto par_assigner = CreateAssigner(kind, {.seed = 5});
      const auto got = parallel.Run(stream, par_assigner.get());
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameSummary(expected.value(), got.value());
    }
  }
}

}  // namespace
}  // namespace mqa

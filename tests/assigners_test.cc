#include <gtest/gtest.h>

#include "core/assigner.h"
#include "core/divide_conquer.h"
#include "core/exact_assigner.h"
#include "core/greedy.h"
#include "core/random_assigner.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::RandomInstanceOptions;

TEST(DivideConquerTest, ValidOnRandomInstances) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstanceOptions opts;
    opts.num_workers = 10 + trial;
    opts.num_tasks = 10 + trial;
    opts.budget = 2.5;
    const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
    const AssignmentResult result = RunDivideConquer(inst, 0.5);
    EXPECT_TRUE(ValidateAssignment(inst, result).ok()) << "trial " << trial;
  }
}

TEST(DivideConquerTest, ComparableToGreedyQuality) {
  // The paper's evaluation shows D&C >= GREEDY on average. On individual
  // instances either can win; require D&C to reach at least 85% of
  // greedy's quality and to win or tie on aggregate.
  const RangeQualityModel quality(1.0, 2.0, 7);
  Rng rng(37);
  double sum_dc = 0.0;
  double sum_greedy = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstanceOptions opts;
    opts.num_workers = 20;
    opts.num_tasks = 20;
    opts.budget = 4.0;
    const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
    const double dc = RunDivideConquer(inst, 0.5).total_quality;
    const double gr = RunGreedy(inst, 0.5).total_quality;
    sum_dc += dc;
    sum_greedy += gr;
    EXPECT_GE(dc, 0.85 * gr) << "trial " << trial;
  }
  EXPECT_GE(sum_dc, 0.95 * sum_greedy);
}

TEST(DivideConquerTest, ExplicitBranchingFactor) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  Rng rng(41);
  RandomInstanceOptions opts;
  opts.num_workers = 16;
  opts.num_tasks = 16;
  opts.budget = 3.0;
  const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
  for (const int g : {2, 3, 4, 8}) {
    const AssignmentResult result = RunDivideConquer(inst, 0.5, g);
    EXPECT_TRUE(ValidateAssignment(inst, result).ok()) << "g=" << g;
  }
}

TEST(DivideConquerTest, CountsIncludeBudgetReselection) {
  // Two disjoint pairs, (0,0) cost 6 quality 3.0 and (1,1) cost 5 quality
  // 2.9, under budget 10. With g = 2 each task is a leaf: one iteration,
  // one candidate, the pick retired on the way out. The merged pair set
  // costs 11 > 10, so the root reselects over both: one iteration with
  // S_p = {(0,0), (1,1)}, then both pairs retired (one used, one over
  // budget).
  const testing_util::MatrixQualityModel quality({{3.0, 0.0}, {0.0, 2.9}});
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 1.0),
                                 MakeWorker(1, 0.0, 1.0, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.6, 0.0, 1.0),
                             MakeTask(1, 0.5, 1.0, 1.0)};
  ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2, &quality,
                       10.0, 10.0);
  GreedyStats stats;
  inst.set_greedy_stats(&stats);
  const AssignmentResult result = RunDivideConquer(inst, 0.5, /*branching=*/2);
  EXPECT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(stats.iterations, 2 + 1);
  EXPECT_EQ(stats.candidates, 2 + 2);
  EXPECT_EQ(stats.max_candidates, 2);
  EXPECT_EQ(stats.retired_pairs, 2 + 2);
}

TEST(DivideConquerTest, EmptyInstance) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  const ProblemInstance inst({}, 0, {}, 0, &quality, 1.0, 10.0);
  const AssignmentResult result = RunDivideConquer(inst, 0.5);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_DOUBLE_EQ(result.total_quality, 0.0);
}

TEST(RandomAssignerTest, ValidAndDeterministicPerSeed) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  Rng rng(43);
  RandomInstanceOptions opts;
  opts.num_workers = 15;
  opts.num_tasks = 15;
  opts.budget = 2.0;
  const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
  const AssignmentResult a = RunRandom(inst, 0.5, 99);
  const AssignmentResult b = RunRandom(inst, 0.5, 99);
  EXPECT_TRUE(ValidateAssignment(inst, a).ok());
  EXPECT_EQ(a.pairs.size(), b.pairs.size());
  EXPECT_DOUBLE_EQ(a.total_quality, b.total_quality);
}

TEST(RandomAssignerTest, UsuallyWorseThanGreedy) {
  const RangeQualityModel quality(0.25, 4.0, 13);
  Rng rng(47);
  double greedy_total = 0.0;
  double random_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstanceOptions opts;
    opts.num_workers = 15;
    opts.num_tasks = 15;
    opts.budget = 2.0;
    const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
    greedy_total += RunGreedy(inst, 0.5).total_quality;
    random_total += RunRandom(inst, 0.5, trial).total_quality;
  }
  EXPECT_GT(greedy_total, random_total);
}

TEST(ExactAssignerTest, RefusesLargeInstances) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  Rng rng(53);
  RandomInstanceOptions opts;
  opts.num_workers = 20;
  opts.num_tasks = 20;
  const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
  EXPECT_FALSE(RunExact(inst).ok());
}

TEST(ExactAssignerTest, KnapsackStructure) {
  // Two disjoint worker-task pairs with costs 6 and 5, budget 10: the
  // exact solver must pick the single best pair combination like 0-1
  // knapsack (both do not fit).
  const testing_util::MatrixQualityModel quality({{3.0, 0.0}, {0.0, 2.9}});
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 1.0),
                                 MakeWorker(1, 0.0, 1.0, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.6, 0.0, 1.0),
                             MakeTask(1, 0.5, 1.0, 1.0)};
  const ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2,
                             &quality, 10.0, 10.0);
  const auto exact = RunExact(inst);
  ASSERT_TRUE(exact.ok());
  // costs: pair (0,0) = 6, pair (1,1) = 5; qualities 3.0 vs 2.9.
  EXPECT_DOUBLE_EQ(exact.value().total_quality, 3.0);
  EXPECT_EQ(exact.value().pairs.size(), 1u);
}

TEST(ExactAssignerTest, TakesBothWhenBudgetAllows) {
  const testing_util::MatrixQualityModel quality({{3.0, 0.0}, {0.0, 2.9}});
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 1.0),
                                 MakeWorker(1, 0.0, 1.0, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.6, 0.0, 1.0),
                             MakeTask(1, 0.5, 1.0, 1.0)};
  const ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2,
                             &quality, 10.0, 11.5);
  const auto exact = RunExact(inst);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact.value().total_quality, 5.9);
}

TEST(AssignerFactoryTest, AllKindsProduceWorkingAssigners) {
  const RangeQualityModel quality(1.0, 2.0, 5);
  Rng rng(59);
  RandomInstanceOptions opts;
  opts.num_workers = 6;
  opts.num_tasks = 6;
  opts.budget = 2.0;
  const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
        AssignerKind::kRandom, AssignerKind::kExact}) {
    const auto assigner = CreateAssigner(kind);
    ASSERT_NE(assigner, nullptr);
    const auto result = assigner->Assign(inst);
    ASSERT_TRUE(result.ok()) << assigner->name();
    EXPECT_TRUE(ValidateAssignment(inst, result.value()).ok())
        << assigner->name();
  }
}

TEST(AssignerFactoryTest, NamesMatchKinds) {
  EXPECT_STREQ(CreateAssigner(AssignerKind::kGreedy)->name(), "GREEDY");
  EXPECT_STREQ(CreateAssigner(AssignerKind::kDivideConquer)->name(), "D&C");
  EXPECT_STREQ(CreateAssigner(AssignerKind::kRandom)->name(), "RANDOM");
  EXPECT_STREQ(CreateAssigner(AssignerKind::kExact)->name(), "EXACT");
  EXPECT_STREQ(AssignerKindToString(AssignerKind::kGreedy), "GREEDY");
}

}  // namespace
}  // namespace mqa

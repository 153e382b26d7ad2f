#include "core/greedy.h"

#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/exact_assigner.h"
#include "obs/metrics.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::ConstantQualityModel;
using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::MatrixQualityModel;
using testing_util::RandomInstanceOptions;

// Builds a pool of hand-specified pairs (worker w, task t, cost, quality);
// `predicted` (optional, per spec) marks pairs involving predicted
// entities.
PairPool HandPool(int num_workers, int num_tasks,
                  const std::vector<std::tuple<int, int, double, double>>&
                      specs,
                  const std::vector<bool>& predicted = {}) {
  PairPoolBuilder builder(static_cast<size_t>(num_workers),
                          static_cast<size_t>(num_tasks));
  for (size_t k = 0; k < specs.size(); ++k) {
    const auto& [w, t, c, q] = specs[k];
    CandidatePair p;
    p.worker_index = w;
    p.task_index = t;
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
    if (!predicted.empty()) p.involves_predicted = predicted[k];
    builder.Add(p);
  }
  return std::move(builder).Build();
}

std::vector<int32_t> RunGreedyOnPool(const PairPool& pool, double budget) {
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  return GreedySelect(pool, ids, budget, 0.5);
}

double TotalQuality(const PairPool& pool, const std::vector<int32_t>& ids) {
  double q = 0.0;
  for (const int32_t id : ids) q += pool.QualityMean(id);
  return q;
}

double TotalCost(const PairPool& pool, const std::vector<int32_t>& ids) {
  double c = 0.0;
  for (const int32_t id : ids) c += pool.CostMean(id);
  return c;
}

// ---------------------------------------------------------------- basics

TEST(GreedySelectTest, PicksQualityOrderUnderBudget) {
  // Table-I-style single-instance pool.
  const PairPool pool = HandPool(
      2, 2, {{0, 0, 1.0, 3.0}, {0, 1, 2.0, 2.0}, {1, 0, 1.0, 4.0},
             {1, 1, 3.0, 2.0}});
  const auto selected = RunGreedyOnPool(pool, 100.0);
  // Highest quality first: w1-t0 (q4); then w0 takes t1 (q2).
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_DOUBLE_EQ(TotalQuality(pool, selected), 6.0);
}

TEST(GreedySelectTest, BudgetStopsSelection) {
  const PairPool pool =
      HandPool(2, 2, {{0, 0, 5.0, 3.0}, {1, 1, 6.0, 4.0}});
  const auto selected = RunGreedyOnPool(pool, 8.0);
  // Only the q=4 pair fits (6 <= 8); adding the other would need 11.
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_DOUBLE_EQ(TotalQuality(pool, selected), 4.0);
}

TEST(GreedySelectTest, NoDoubleAssignment) {
  const PairPool pool = HandPool(
      1, 3, {{0, 0, 1.0, 3.0}, {0, 1, 1.0, 2.0}, {0, 2, 1.0, 1.0}});
  const auto selected = RunGreedyOnPool(pool, 100.0);
  ASSERT_EQ(selected.size(), 1u);  // one worker serves at most one task
  EXPECT_DOUBLE_EQ(TotalQuality(pool, selected), 3.0);
}

TEST(GreedySelectTest, EmptyPool) {
  const PairPool pool = HandPool(2, 2, {});
  EXPECT_TRUE(RunGreedyOnPool(pool, 10.0).empty());
}

TEST(GreedySelectTest, CountersDescribeTheWork) {
#if defined(MQA_OBS_DISABLED)
  GTEST_SKIP() << "metrics compiled out";
#endif
  // Pair 2 is dead on entry (cost 50 > B = 10). Iteration 1: S_p = {0}
  // (pair 1 costs more), select 0. Iteration 2: retire 0, S_p = {1},
  // select 1. Then 1 is retired and S_p comes out empty.
  const PairPool pool = HandPool(
      3, 3, {{0, 0, 1.0, 3.0}, {1, 1, 2.0, 2.0}, {2, 2, 50.0, 9.0}});
  MetricsRegistry& registry = MetricsRegistry::Get();
  const auto value = [&registry](const char* name) {
    return registry.counter(name)->value();
  };
  const int64_t iterations = value("mqa.greedy.iterations");
  const int64_t candidates = value("mqa.greedy.candidates");
  const int64_t retired = value("mqa.greedy.retired_pairs");
  const int64_t cap_hits = value("mqa.greedy.eq10_cap_hits");
  const int64_t calls =
      registry.histogram("mqa.greedy.max_candidates")->count();

  EXPECT_EQ(RunGreedyOnPool(pool, 10.0), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(value("mqa.greedy.iterations") - iterations, 2);
  EXPECT_EQ(value("mqa.greedy.candidates") - candidates, 2);
  EXPECT_EQ(value("mqa.greedy.retired_pairs") - retired, 3);
  EXPECT_EQ(value("mqa.greedy.eq10_cap_hits") - cap_hits, 0);
  EXPECT_EQ(registry.histogram("mqa.greedy.max_candidates")->count() - calls,
            1);
}

// ----------------------------------------- the paper's running example

// Table I costs (C = 1) and qualities. Workers 0..2 = w1..w3, tasks
// 0..2 = t1..t3.
const std::vector<std::tuple<int, int, double, double>> kTableI = {
    {0, 0, 1.0, 3.0}, {0, 1, 2.0, 2.0}, {0, 2, 4.0, 2.0},
    {1, 0, 1.0, 4.0}, {1, 1, 3.0, 2.0}, {1, 2, 2.0, 1.0},
    {2, 0, 5.0, 2.0}, {2, 1, 3.0, 1.0}, {2, 2, 1.0, 2.0}};

TEST(RunningExampleTest, LocalStrategyGetsQuality7Cost5) {
  // Instance p: only w1, t1, t2 exist (Fig. 1a).
  const PairPool pool_p =
      HandPool(3, 3, {{0, 0, 1.0, 3.0}, {0, 1, 2.0, 2.0}});
  const auto sel_p = RunGreedyOnPool(pool_p, 100.0);
  ASSERT_EQ(sel_p.size(), 1u);
  EXPECT_EQ(pool_p.TaskIndex(sel_p[0]), 0)
      << "local strategy assigns w1 to t1";

  // Instance p+1: w2, w3 arrive; t2 carried over, t3 arrives (Fig. 1b).
  const PairPool pool_p1 = HandPool(
      3, 3,
      {{1, 1, 3.0, 2.0}, {1, 2, 2.0, 1.0}, {2, 1, 3.0, 1.0}, {2, 2, 1.0, 2.0}});
  const auto sel_p1 = RunGreedyOnPool(pool_p1, 100.0);
  const double quality =
      TotalQuality(pool_p, sel_p) + TotalQuality(pool_p1, sel_p1);
  const double cost = TotalCost(pool_p, sel_p) + TotalCost(pool_p1, sel_p1);
  EXPECT_DOUBLE_EQ(quality, 7.0);  // paper: overall quality score 7
  EXPECT_DOUBLE_EQ(cost, 5.0);     // paper: overall traveling cost 5
}

TEST(RunningExampleTest, PredictionStrategyGetsQuality8Cost4) {
  // Instance p with predicted ŵ2, ŵ3, t̂3: the greedy optimizes over all
  // pairs but only emits current-current ones. Predicted pairs use the
  // Table I statistics with existence 1 (a perfect prediction).
  // w1 (index 0), t1, t2 (indices 0,1) are current at p.
  std::vector<bool> predicted;
  for (const auto& [w, t, c, q] : kTableI) {
    (void)c;
    (void)q;
    predicted.push_back(!(w == 0 && t <= 1));
  }
  const PairPool pool = HandPool(3, 3, kTableI, predicted);
  const auto selected = RunGreedyOnPool(pool, 100.0);

  // The predicted pair <ŵ2, t1> (q=4) outranks <w1, t1> (q=3), so w1 is
  // steered to t2. Emitted current pair at p: <w1, t2>.
  double emitted_quality = 0.0;
  double emitted_cost = 0.0;
  int emitted = 0;
  for (const int32_t id : selected) {
    if (pool.InvolvesPredicted(id)) continue;
    ++emitted;
    EXPECT_EQ(pool.WorkerIndex(id), 0);
    EXPECT_EQ(pool.TaskIndex(id), 1);
    emitted_quality += pool.QualityMean(id);
    emitted_cost += pool.CostMean(id);
  }
  EXPECT_EQ(emitted, 1);

  // Instance p+1: w2, w3 arrive; t1 was carried over (unassigned at p),
  // t3 arrives.
  const PairPool pool_p1 = HandPool(
      3, 3,
      {{1, 0, 1.0, 4.0}, {1, 2, 2.0, 1.0}, {2, 0, 5.0, 2.0}, {2, 2, 1.0, 2.0}});
  const auto sel_p1 = RunGreedyOnPool(pool_p1, 100.0);
  emitted_quality += TotalQuality(pool_p1, sel_p1);
  emitted_cost += TotalCost(pool_p1, sel_p1);

  EXPECT_DOUBLE_EQ(emitted_quality, 8.0);  // paper: quality 8 (Example 2)
  EXPECT_DOUBLE_EQ(emitted_cost, 4.0);     // paper: traveling cost 4
}

// ------------------------------------------------- end-to-end RunGreedy

TEST(RunGreedyTest, GeometricInstanceRespectsInvariants) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  Rng rng(17);
  RandomInstanceOptions opts;
  opts.num_workers = 12;
  opts.num_tasks = 12;
  opts.budget = 2.0;
  const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
  const AssignmentResult result = RunGreedy(inst, 0.5);
  EXPECT_TRUE(ValidateAssignment(inst, result).ok());
}

TEST(RunGreedyTest, MatchesExactOnEasyInstance) {
  // Plenty of budget and a single worker-task pairing that clearly
  // dominates: greedy should reach the optimum.
  const MatrixQualityModel quality({{5.0, 1.0}, {1.0, 4.0}});
  std::vector<Worker> workers = {MakeWorker(0, 0.1, 0.1, 1.0),
                                 MakeWorker(1, 0.9, 0.9, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.15, 0.1, 1.0),
                             MakeTask(1, 0.85, 0.9, 1.0)};
  const ProblemInstance inst(std::move(workers), 2, std::move(tasks), 2,
                             &quality, 1.0, 10.0);
  const AssignmentResult greedy = RunGreedy(inst, 0.5);
  const auto exact = RunExact(inst);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(greedy.total_quality, exact.value().total_quality);
  EXPECT_DOUBLE_EQ(greedy.total_quality, 9.0);
}

TEST(RunGreedyTest, NeverExceedsExact) {
  const RangeQualityModel quality(0.5, 1.0, 11);
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceOptions opts;
    opts.num_workers = 5;
    opts.num_tasks = 5;
    opts.budget = 1.5;
    const auto inst = testing_util::RandomInstance(opts, &quality, &rng);
    const AssignmentResult greedy = RunGreedy(inst, 0.5);
    const auto exact = RunExact(inst);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(greedy.total_quality, exact.value().total_quality + 1e-9)
        << "trial " << trial;
    EXPECT_TRUE(ValidateAssignment(inst, greedy).ok()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mqa

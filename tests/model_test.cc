#include <gtest/gtest.h>

#include "model/assignment.h"
#include "model/problem_instance.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::ConstantQualityModel;
using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

ProblemInstance SmallInstance(const QualityModel* quality) {
  std::vector<Worker> workers = {MakeWorker(0, 0.1, 0.1, 0.5),
                                 MakeWorker(1, 0.9, 0.9, 0.5)};
  std::vector<Task> tasks = {MakeTask(0, 0.2, 0.1, 1.0),
                             MakeTask(1, 0.8, 0.9, 1.0)};
  return ProblemInstance(std::move(workers), 2, std::move(tasks), 2, quality,
                         /*unit_price=*/1.0, /*budget=*/10.0);
}

TEST(ProblemInstanceTest, CanReachRespectsVelocityAndDeadline) {
  const ConstantQualityModel q(1.0);
  const auto inst = SmallInstance(&q);
  // Worker 0 at (0.1,0.1), v=0.5; task 1 at (0.8,0.9): dist ~ 1.063 >
  // 0.5*1.0 -> unreachable.
  EXPECT_TRUE(inst.CanReach(inst.workers()[0], inst.tasks()[0]));
  EXPECT_FALSE(inst.CanReach(inst.workers()[0], inst.tasks()[1]));
  EXPECT_TRUE(inst.CanReach(inst.workers()[1], inst.tasks()[1]));
}

TEST(ProblemInstanceTest, CanReachUsesOptimisticBoxDistance) {
  const ConstantQualityModel q(1.0);
  std::vector<Worker> workers = {
      MakeWorker(0, 0.1, 0.1, 0.5),
      MakePredictedWorker(-1, BBox({0.4, 0.4}, {0.9, 0.9}), 0.5)};
  // Deadline 1.2: after the predicted worker's one-instance arrival
  // delay, 0.2 time units of travel remain.
  std::vector<Task> tasks = {MakeTask(0, 0.45, 0.45, 1.2)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1, &q,
                             1.0, 10.0);
  // Box overlaps the task: min distance 0 -> reachable within the
  // remaining 0.2.
  EXPECT_TRUE(inst.CanReach(inst.workers()[1], inst.tasks()[0]));
  // The current worker is 0.49 away with reach 0.5 * 1.2 = 0.6 -> valid.
  EXPECT_TRUE(inst.CanReach(inst.workers()[0], inst.tasks()[0]));
}

TEST(ProblemInstanceTest, PredictedWorkerCannotServeExpiringTask) {
  // A current task with deadline < one instance is dead before any
  // predicted worker joins, no matter how close (docs/DEVIATIONS.md,
  // row D6).
  const ConstantQualityModel q(1.0);
  std::vector<Worker> workers = {
      MakeWorker(0, 0.45, 0.45, 0.5),
      MakePredictedWorker(-1, BBox({0.4, 0.4}, {0.5, 0.5}), 0.5)};
  std::vector<Task> tasks = {MakeTask(0, 0.45, 0.45, 0.8)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1, &q,
                             1.0, 10.0);
  EXPECT_TRUE(inst.CanReach(inst.workers()[0], inst.tasks()[0]));
  EXPECT_FALSE(inst.CanReach(inst.workers()[1], inst.tasks()[0]));
}

TEST(ProblemInstanceTest, ZeroVelocityNeverReaches) {
  const ConstantQualityModel q(1.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.5, 0.5, 0.0)};
  std::vector<Task> tasks = {MakeTask(0, 0.5, 0.5, 10.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1, &q,
                             1.0, 10.0);
  EXPECT_FALSE(inst.CanReach(inst.workers()[0], inst.tasks()[0]));
}

TEST(ProblemInstanceTest, ValidateAcceptsCurrentFirstOrdering) {
  // The validating constructor enforces current-first ordering; a
  // correctly ordered mixed instance passes Validate.
  const ConstantQualityModel q(1.0);
  std::vector<Worker> workers = {
      MakeWorker(0, 0.1, 0.1, 0.3),
      MakePredictedWorker(-1, BBox({0.1, 0.1}, {0.2, 0.2}), 0.3)};
  std::vector<Task> tasks = {MakeTask(0, 0.5, 0.5, 1.0)};
  const ProblemInstance good(std::move(workers), 1, std::move(tasks), 1, &q,
                             1.0, 5.0);
  EXPECT_TRUE(good.Validate().ok());
  EXPECT_EQ(good.num_predicted_workers(), 1u);
  EXPECT_TRUE(good.IsCurrentWorker(0));
  EXPECT_FALSE(good.IsCurrentWorker(1));
}

TEST(ValidateAssignmentTest, AcceptsValidAssignment) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{0, 0}, {1, 1}};
  r.total_cost = Distance({0.1, 0.1}, {0.2, 0.1}) +
                 Distance({0.9, 0.9}, {0.8, 0.9});
  r.total_quality = 4.0;
  EXPECT_TRUE(ValidateAssignment(inst, r).ok());
}

TEST(ValidateAssignmentTest, RejectsDuplicateWorker) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{0, 0}, {0, 1}};
  EXPECT_EQ(ValidateAssignment(inst, r).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateAssignmentTest, RejectsDuplicateTask) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{0, 0}, {1, 0}};
  EXPECT_EQ(ValidateAssignment(inst, r).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateAssignmentTest, RejectsUnreachablePair) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{0, 1}};  // unreachable (see CanReach test)
  EXPECT_EQ(ValidateAssignment(inst, r).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateAssignmentTest, RejectsOutOfRangeIndex) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{7, 0}};
  EXPECT_EQ(ValidateAssignment(inst, r).code(), StatusCode::kOutOfRange);
}

TEST(ValidateAssignmentTest, RejectsBudgetViolation) {
  const ConstantQualityModel q(2.0);
  std::vector<Worker> workers = {MakeWorker(0, 0.0, 0.0, 1.0)};
  std::vector<Task> tasks = {MakeTask(0, 1.0, 0.0, 2.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1, &q,
                             /*unit_price=*/10.0, /*budget=*/5.0);
  AssignmentResult r;
  r.pairs = {{0, 0}};
  r.total_cost = 10.0;
  r.total_quality = 2.0;
  EXPECT_EQ(ValidateAssignment(inst, r).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateAssignmentTest, RejectsPredictedEndpoint) {
  const ConstantQualityModel q(1.0);
  std::vector<Worker> workers = {
      MakeWorker(0, 0.1, 0.1, 0.5),
      MakePredictedWorker(-1, BBox({0.1, 0.1}, {0.3, 0.3}), 0.5)};
  std::vector<Task> tasks = {MakeTask(0, 0.2, 0.1, 1.0)};
  const ProblemInstance inst(std::move(workers), 1, std::move(tasks), 1, &q,
                             1.0, 10.0);
  AssignmentResult r;
  r.pairs = {{1, 0}};  // predicted worker
  EXPECT_EQ(ValidateAssignment(inst, r).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidateAssignmentTest, RejectsWrongReportedTotals) {
  const ConstantQualityModel q(2.0);
  const auto inst = SmallInstance(&q);
  AssignmentResult r;
  r.pairs = {{0, 0}};
  r.total_cost = 99.0;  // wrong but under budget? (budget 10) -> cost check
  r.total_quality = 2.0;
  EXPECT_EQ(ValidateAssignment(inst, r).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace mqa

#ifndef MQA_TESTS_TEST_UTIL_H_
#define MQA_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/assigner.h"
#include "core/valid_pairs.h"
#include "index/brute_force_index.h"
#include "model/problem_instance.h"
#include "model/task.h"
#include "model/worker.h"
#include "quality/quality_model.h"
#include "sim/arrival_stream.h"
#include "sim/simulator_config.h"
#include "workload/checkin.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace mqa {
namespace testing_util {

/// Worker at a fixed point.
inline Worker MakeWorker(WorkerId id, double x, double y, double velocity) {
  Worker w;
  w.id = id;
  w.location = BBox::FromPoint({x, y});
  w.velocity = velocity;
  return w;
}

/// Predicted worker over a kernel box.
inline Worker MakePredictedWorker(WorkerId id, const BBox& box,
                                  double velocity) {
  Worker w;
  w.id = id;
  w.location = box;
  w.velocity = velocity;
  w.predicted = true;
  return w;
}

/// Task at a fixed point.
inline Task MakeTask(TaskId id, double x, double y, double deadline) {
  Task t;
  t.id = id;
  t.location = BBox::FromPoint({x, y});
  t.deadline = deadline;
  return t;
}

/// Predicted task over a kernel box.
inline Task MakePredictedTask(TaskId id, const BBox& box, double deadline) {
  Task t;
  t.id = id;
  t.location = box;
  t.deadline = deadline;
  t.predicted = true;
  return t;
}

/// Quality model backed by an explicit dense matrix indexed by
/// (worker.id, task.id); ids outside the matrix score `fallback`.
/// Useful for reconstructing the paper's running example (Table I).
class MatrixQualityModel : public QualityModel {
 public:
  MatrixQualityModel(std::vector<std::vector<double>> scores,
                     double fallback = 0.0)
      : scores_(std::move(scores)), fallback_(fallback) {}

  double Score(const Worker& worker, const Task& task) const override {
    if (worker.id < 0 || task.id < 0) return fallback_;
    const auto i = static_cast<size_t>(worker.id);
    const auto j = static_cast<size_t>(task.id);
    if (i >= scores_.size() || j >= scores_[i].size()) return fallback_;
    return scores_[i][j];
  }

 private:
  std::vector<std::vector<double>> scores_;
  double fallback_;
};

/// Constant-score model.
class ConstantQualityModel : public QualityModel {
 public:
  explicit ConstantQualityModel(double score) : score_(score) {}
  double Score(const Worker&, const Task&) const override { return score_; }

 private:
  double score_;
};

/// Options for RandomInstance below.
struct RandomInstanceOptions {
  int num_workers = 6;
  int num_tasks = 6;
  double velocity_lo = 0.2;
  double velocity_hi = 0.4;
  double deadline_lo = 0.8;
  double deadline_hi = 2.0;
  double unit_price = 1.0;
  double budget = 3.0;
};

/// A random current-only instance with uniform locations; `quality` must
/// outlive the returned instance.
inline ProblemInstance RandomInstance(const RandomInstanceOptions& opts,
                                      const QualityModel* quality, Rng* rng) {
  std::vector<Worker> workers;
  for (int i = 0; i < opts.num_workers; ++i) {
    workers.push_back(MakeWorker(
        i, rng->Uniform(), rng->Uniform(),
        rng->Uniform(opts.velocity_lo, opts.velocity_hi)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < opts.num_tasks; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(opts.deadline_lo, opts.deadline_hi)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(opts.num_workers),
                         std::move(tasks), static_cast<size_t>(opts.num_tasks),
                         quality, opts.unit_price, opts.budget);
}

/// A randomized instance with current and (optionally) predicted
/// entities spanning the given parameter ranges; `quality` must outlive
/// it.
inline ProblemInstance RandomMixedInstance(
    Rng* rng, const QualityModel* quality, int num_current_workers,
    int num_current_tasks, int num_pred_workers, int num_pred_tasks,
    double velocity_hi, double deadline_hi, double unit_price,
    double budget) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_current_workers; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.01, velocity_hi)));
  }
  for (int i = 0; i < num_pred_workers; ++i) {
    workers.push_back(MakePredictedWorker(
        1000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.2), rng->Uniform(0.0, 0.2)),
        rng->Uniform(0.01, velocity_hi)));
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_current_tasks; ++j) {
    tasks.push_back(MakeTask(j, rng->Uniform(), rng->Uniform(),
                             rng->Uniform(0.1, deadline_hi)));
  }
  for (int j = 0; j < num_pred_tasks; ++j) {
    tasks.push_back(MakePredictedTask(
        1000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                        rng->Uniform(0.0, 0.2), rng->Uniform(0.0, 0.2)),
        rng->Uniform(0.1, deadline_hi)));
  }
  return ProblemInstance(std::move(workers),
                         static_cast<size_t>(num_current_workers),
                         std::move(tasks),
                         static_cast<size_t>(num_current_tasks), quality,
                         unit_price, budget);
}

/// Loads `index` with every task of `instance` (ids are task positions,
/// bounds the task deadlines, as TaskIndexCache loads them) and hands it
/// to the instance through set_task_index. `index` must outlive every
/// pool built from the instance.
inline void AttachTaskIndex(ProblemInstance* instance, SpatialIndex* index) {
  std::vector<IndexEntry> entries;
  for (size_t j = 0; j < instance->tasks().size(); ++j) {
    entries.push_back({static_cast<int64_t>(j), instance->tasks()[j].location,
                       instance->tasks()[j].deadline});
  }
  index->BulkLoad(entries);
  instance->set_task_index(index);
}

/// BuildPairPool with candidate tasks from a BruteForceIndex, the
/// semantics reference: the pool every index must reproduce.
inline PairPool BuildBrutePool(ProblemInstance instance,
                               bool include_predicted = true) {
  BruteForceIndex brute;
  AttachTaskIndex(&instance, &brute);
  return BuildPairPool(instance, include_predicted);
}

/// Ids of the pool's pairs whose worker index is `worker`, ascending,
/// read off the WorkerIndex column: the pool keeps a CSR adjacency by
/// task only.
inline std::vector<int32_t> PairIdsOfWorker(const PairPool& pool,
                                            int32_t worker) {
  std::vector<int32_t> ids;
  for (size_t k = 0; k < pool.size(); ++k) {
    const auto id = static_cast<int32_t>(k);
    if (pool.WorkerIndex(id) == worker) ids.push_back(id);
  }
  return ids;
}

/// Delegating assigner that records every result, so equivalence tests
/// can compare the raw assignment pairs, not just summary aggregates.
class RecordingAssigner : public Assigner {
 public:
  explicit RecordingAssigner(std::unique_ptr<Assigner> inner)
      : inner_(std::move(inner)) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    auto result = inner_->Assign(instance);
    if (result.ok()) recorded_.push_back(result.value());
    return result;
  }
  const char* name() const override { return inner_->name(); }

  const std::vector<AssignmentResult>& recorded() const { return recorded_; }

 private:
  std::unique_ptr<Assigner> inner_;
  std::vector<AssignmentResult> recorded_;
};

/// Small per-instance workloads shared by the property and conformance
/// tests — one builder per generator flavor instead of a fresh ad-hoc
/// config block in every test file.
inline ArrivalStream SmallSyntheticStream(int64_t workers, int64_t tasks,
                                          int instances, uint64_t seed) {
  SyntheticConfig w;
  w.num_workers = workers;
  w.num_tasks = tasks;
  w.num_instances = instances;
  w.seed = seed;
  return GenerateSynthetic(w);
}

inline ArrivalStream SmallCheckinStream(int64_t workers, int64_t tasks,
                                        int instances, uint64_t seed) {
  CheckinConfig w;
  w.num_workers = workers;
  w.num_tasks = tasks;
  w.num_instances = instances;
  w.seed = seed;
  return GenerateCheckin(w);
}

inline ScenarioStream SmallScenario(ScenarioKind kind, int64_t workers,
                                    int64_t tasks, double horizon,
                                    uint64_t seed) {
  ScenarioConfig w;
  w.kind = kind;
  w.num_workers = workers;
  w.num_tasks = tasks;
  w.horizon = horizon;
  w.seed = seed;
  return GenerateScenario(w);
}

/// The simulator configuration the property tests share: paper ranges
/// scaled to test-sized workloads (budget 40, unit price C=10, gamma 8,
/// window 3). Tests override individual fields as needed.
inline SimulatorConfig PropertySimConfig() {
  SimulatorConfig config;
  config.budget = 40.0;
  config.unit_price = 10.0;
  config.prediction.gamma = 8;
  config.prediction.window = 3;
  return config;
}

}  // namespace testing_util
}  // namespace mqa

#endif  // MQA_TESTS_TEST_UTIL_H_

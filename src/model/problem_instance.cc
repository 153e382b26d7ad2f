#include "model/problem_instance.h"

#include <utility>

#include "common/logging.h"

namespace mqa {

ProblemInstance::ProblemInstance(std::vector<Worker> workers,
                                 size_t num_current_workers,
                                 std::vector<Task> tasks,
                                 size_t num_current_tasks,
                                 const QualityModel* quality,
                                 double unit_price, double budget)
    : workers_(std::move(workers)),
      tasks_(std::move(tasks)),
      num_current_workers_(num_current_workers),
      num_current_tasks_(num_current_tasks),
      quality_(quality),
      unit_price_(unit_price),
      budget_(budget) {
  MQA_CHECK(Validate().ok()) << "inconsistent ProblemInstance";
}

Status ProblemInstance::Validate() const {
  if (num_current_workers_ > workers_.size()) {
    return Status::InvalidArgument("num_current_workers exceeds worker count");
  }
  if (num_current_tasks_ > tasks_.size()) {
    return Status::InvalidArgument("num_current_tasks exceeds task count");
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    const bool should_be_predicted = i >= num_current_workers_;
    if (workers_[i].predicted != should_be_predicted) {
      return Status::InvalidArgument(
          "workers must be ordered current-first and flagged consistently");
    }
    if (workers_[i].velocity < 0.0) {
      return Status::InvalidArgument("negative worker velocity");
    }
  }
  for (size_t j = 0; j < tasks_.size(); ++j) {
    const bool should_be_predicted = j >= num_current_tasks_;
    if (tasks_[j].predicted != should_be_predicted) {
      return Status::InvalidArgument(
          "tasks must be ordered current-first and flagged consistently");
    }
    if (tasks_[j].deadline < 0.0) {
      return Status::InvalidArgument("negative task deadline");
    }
  }
  if (unit_price_ < 0.0) return Status::InvalidArgument("negative unit price");
  if (budget_ < 0.0) return Status::InvalidArgument("negative budget");
  return Status::OK();
}

}  // namespace mqa

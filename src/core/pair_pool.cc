#include "core/pair_pool.h"

#include <sys/mman.h>

#include <new>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "prediction/pair_stats.h"

namespace mqa {

void* MapPages(size_t bytes) {
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  return data;
}

void UnmapPages(void* data, size_t bytes) { munmap(data, bytes); }

// ---------------------------------------------------------------------------
// PairPool

const PairPool::QualityEntry& PairPool::Entry(size_t k) const {
  switch (static_cast<PairQualityKind>(qkind_col_[k])) {
    case PairQualityKind::kCase1:
      return case_stats_[static_cast<size_t>(task_col_[k])];
    case PairQualityKind::kCase2:
      return case_stats_[num_current_tasks_ +
                         static_cast<size_t>(worker_col_[k])];
    case PairQualityKind::kCase3:
      return case_stats_.back();
    default:  // kExplicit, kExplicitPredicted
      return explicit_[static_cast<size_t>(explicit_ref_col_[k])];
  }
}

double PairPool::QualityMean(int32_t id) const {
  const size_t k = static_cast<size_t>(id);
  if (QualityKind(id) == PairQualityKind::kCurrent) {
    return fixed_quality_col_[k];
  }
  return Entry(k).quality.mean();
}

Uncertain PairPool::Quality(int32_t id) const {
  const size_t k = static_cast<size_t>(id);
  if (QualityKind(id) == PairQualityKind::kCurrent) {
    return Uncertain::Fixed(fixed_quality_col_[k]);
  }
  return Entry(k).quality;
}

double PairPool::Existence(int32_t id) const {
  if (QualityKind(id) == PairQualityKind::kCurrent) return 1.0;
  return Entry(static_cast<size_t>(id)).existence;
}

CandidatePair PairPool::GetPair(int32_t id) const {
  CandidatePair pair;
  pair.worker_index = WorkerIndex(id);
  pair.task_index = TaskIndex(id);
  pair.cost = Cost(id);
  pair.quality = Quality(id);
  pair.existence = Existence(id);
  pair.involves_predicted = InvolvesPredicted(id);
  return pair;
}

PairPoolStats PairPool::Stats() const {
  PairPoolStats stats;
  stats.pairs = static_cast<int64_t>(num_pairs_);
  stats.predicted_pairs = predicted_pairs_;
  stats.build_seconds = build_seconds_;
  stats.covered_tasks = covered_tasks_;

  int64_t column_bytes = 0;
  if (num_pairs_ > 0) {
    column_bytes = static_cast<int64_t>(
        num_pairs_ * (2 * sizeof(int32_t) + 5 * sizeof(double) +
                      sizeof(uint8_t) +
                      (explicit_ref_col_ != nullptr ? sizeof(int32_t) : 0)));
  }
  const int64_t csr_bytes = static_cast<int64_t>(
      (num_tasks_ + 1 + num_pairs_) * sizeof(int32_t));
  stats.pool_bytes =
      column_bytes + csr_bytes +
      static_cast<int64_t>(explicit_.size() * sizeof(QualityEntry));
  return stats;
}

// ---------------------------------------------------------------------------
// PairPoolBuilder

PairPoolBuilder::PairPoolBuilder(size_t num_workers, size_t num_tasks)
    : PairPoolBuilder(num_workers, num_tasks, num_workers, num_tasks,
                      /*storage=*/nullptr) {
  hand_mode_ = true;
}

PairPoolBuilder::PairPoolBuilder(size_t num_workers, size_t num_tasks,
                                 size_t num_current_workers,
                                 size_t num_current_tasks,
                                 PairPoolStorage* storage) {
  pool_.num_workers_ = num_workers;
  pool_.num_tasks_ = num_tasks;
  pool_.num_current_workers_ = num_current_workers;
  pool_.num_current_tasks_ = num_current_tasks;
  const bool owned = storage == nullptr;
  if (owned) storage = new PairPoolStorage;
  MQA_CHECK(!storage->in_use)
      << "the pool storage still backs a live pool; drop that pool first";
  storage->in_use = true;
  pool_.storage_ = {storage, PairPoolStorage::Release{owned}};
}

int32_t PairPoolBuilder::Add(const CandidatePair& pair) {
  MQA_CHECK(hand_mode_) << "Add() is for hand-built pools";
  MQA_CHECK(pair.worker_index >= 0 &&
            static_cast<size_t>(pair.worker_index) < pool_.num_workers_)
      << "worker index out of range";
  MQA_CHECK(pair.task_index >= 0 &&
            static_cast<size_t>(pair.task_index) < pool_.num_tasks_)
      << "task index out of range";
  staged_.push_back(pair);
  return static_cast<int32_t>(staged_.size() - 1);
}

void PairPoolBuilder::AllocateColumns(size_t num_pairs) {
  PairPoolStorage& s = storage();
  pool_.num_pairs_ = num_pairs;
  pool_.worker_col_ = PairPoolStorage::Fit(&s.worker, num_pairs);
  pool_.task_col_ = PairPoolStorage::Fit(&s.task, num_pairs);
  pool_.cost_mean_col_ = PairPoolStorage::Fit(&s.cost_mean, num_pairs);
  pool_.cost_var_col_ = PairPoolStorage::Fit(&s.cost_var, num_pairs);
  pool_.cost_lb_col_ = PairPoolStorage::Fit(&s.cost_lb, num_pairs);
  pool_.cost_ub_col_ = PairPoolStorage::Fit(&s.cost_ub, num_pairs);
  pool_.fixed_quality_col_ = PairPoolStorage::Fit(&s.fixed_quality, num_pairs);
  pool_.qkind_col_ = PairPoolStorage::Fit(&s.qkind, num_pairs);
}

void PairPoolBuilder::BuildCsr() {
  MQA_TRACE_SPAN("pool/csr");
  PairPoolStorage& s = storage();
  const size_t n = pool_.num_pairs_;
  const size_t num_tasks = pool_.num_tasks_;

  pool_.task_offsets_ = PairPoolStorage::Fit(&s.task_offsets, num_tasks + 1);
  pool_.by_task_ = PairPoolStorage::Fit(&s.by_task, n);

  for (size_t j = 0; j <= num_tasks; ++j) pool_.task_offsets_[j] = 0;
  for (size_t k = 0; k < n; ++k) {
    ++pool_.task_offsets_[static_cast<size_t>(pool_.task_col_[k]) + 1];
  }
  for (size_t j = 0; j < num_tasks; ++j) {
    pool_.task_offsets_[j + 1] += pool_.task_offsets_[j];
  }

  // Fill in ascending pair-id order: rows end up ascending by id, exactly
  // the order the nested push_back adjacency used to produce.
  int32_t* task_cursor = PairPoolStorage::Fit(&s.task_cursor, num_tasks);
  for (size_t j = 0; j < num_tasks; ++j) task_cursor[j] = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t j = static_cast<size_t>(pool_.task_col_[k]);
    pool_.by_task_[pool_.task_offsets_[j] + task_cursor[j]++] =
        static_cast<int32_t>(k);
  }
}

void PairPoolBuilder::ComputeCaseStats() {
  MQA_CHECK(!hand_mode_) << "hand-built pools carry explicit statistics";
  MQA_TRACE_SPAN("pool/stats");
  const size_t nct = pool_.num_current_tasks_;
  const size_t ncw = pool_.num_current_workers_;
  const PairStatistics stats(ncw, nct, pool_.worker_col_, pool_.task_col_,
                             pool_.fixed_quality_col_, pool_.num_pairs_);
  std::vector<PairPool::QualityEntry>& table = pool_.case_stats_;
  table.reserve(nct + ncw + 1);
  for (size_t j = 0; j < nct; ++j) {
    const int32_t task = static_cast<int32_t>(j);
    table.push_back({stats.QualityCase1(task), stats.ExistenceCase1(task)});
  }
  for (size_t i = 0; i < ncw; ++i) {
    const int32_t worker = static_cast<int32_t>(i);
    table.push_back(
        {stats.QualityCase2(worker), stats.ExistenceCase2(worker)});
  }
  table.push_back({stats.QualityCase3(), stats.ExistenceCase3()});
  pool_.predicted_pairs_ =
      static_cast<int64_t>(pool_.num_pairs_) - stats.num_valid_pairs();
}

PairPool PairPoolBuilder::Build() && {
  if (hand_mode_) {
    AllocateColumns(staged_.size());
    pool_.explicit_ref_col_ =
        PairPoolStorage::Fit(&storage().explicit_ref, staged_.size());
    pool_.explicit_.reserve(staged_.size());
    for (size_t k = 0; k < staged_.size(); ++k) {
      const CandidatePair& pair = staged_[k];
      pool_.worker_col_[k] = pair.worker_index;
      pool_.task_col_[k] = pair.task_index;
      pool_.cost_mean_col_[k] = pair.cost.mean();
      pool_.cost_var_col_[k] = pair.cost.variance();
      pool_.cost_lb_col_[k] = pair.cost.lb();
      pool_.cost_ub_col_[k] = pair.cost.ub();
      pool_.fixed_quality_col_[k] = 0.0;
      pool_.qkind_col_[k] = static_cast<uint8_t>(
          pair.involves_predicted ? PairQualityKind::kExplicitPredicted
                                  : PairQualityKind::kExplicit);
      if (pair.involves_predicted) ++pool_.predicted_pairs_;
      pool_.explicit_ref_col_[k] = static_cast<int32_t>(k);
      pool_.explicit_.push_back({pair.quality, pair.existence});
    }
  }
  BuildCsr();
  return std::move(pool_);
}

}  // namespace mqa

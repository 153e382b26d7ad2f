#include "core/pair_pool.h"

#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace mqa {

// ---------------------------------------------------------------------------
// LazyPairStats

LazyPairStats::LazyPairStats(size_t num_current_workers,
                             size_t num_current_tasks,
                             const int32_t* worker_col,
                             const int32_t* task_col,
                             const double* fixed_quality_col,
                             size_t num_pairs)
    : num_current_workers_(num_current_workers),
      num_current_tasks_(num_current_tasks),
      worker_col_(worker_col),
      task_col_(task_col),
      fixed_quality_col_(fixed_quality_col),
      num_pairs_(num_pairs),
      entries_(num_current_tasks + num_current_workers + 1),
      states_(std::make_unique<std::atomic<uint8_t>[]>(
          num_current_tasks + num_current_workers + 1)),
      entry_refs_(num_current_tasks + num_current_workers + 1, 0) {
  // Count how many pairs reference each entry (classified by index
  // range, which the ProblemInstance current-first ordering guarantees
  // matches the predicted flags), so the lazy-skip accounting never
  // rescans the pairs.
  for (size_t k = 0; k < num_pairs_; ++k) {
    const bool current_worker =
        static_cast<size_t>(worker_col_[k]) < num_current_workers_;
    const bool current_task =
        static_cast<size_t>(task_col_[k]) < num_current_tasks_;
    if (current_worker && current_task) continue;
    const PairQualityKind kind =
        current_task ? PairQualityKind::kCase1
                     : (current_worker ? PairQualityKind::kCase2
                                       : PairQualityKind::kCase3);
    ++entry_refs_[EntryIndex(kind, worker_col_[k], task_col_[k])];
    ++predicted_refs_;
  }
}

size_t LazyPairStats::EntryIndex(PairQualityKind kind, int32_t worker,
                                 int32_t task) const {
  switch (kind) {
    case PairQualityKind::kCase1:
      MQA_DCHECK(task >= 0 &&
                 static_cast<size_t>(task) < num_current_tasks_);
      return static_cast<size_t>(task);
    case PairQualityKind::kCase2:
      MQA_DCHECK(worker >= 0 &&
                 static_cast<size_t>(worker) < num_current_workers_);
      return num_current_tasks_ + static_cast<size_t>(worker);
    case PairQualityKind::kCase3:
      return num_current_tasks_ + num_current_workers_;
    default:
      MQA_CHECK(false) << "not a lazy quality kind";
      return 0;
  }
}

void LazyPairStats::EnsureStats() const {
  std::call_once(stats_once_, [this] {
    MQA_TRACE_SPAN("pool/stats_replay");
    stats_ = std::make_unique<PairStatistics>(
        num_current_workers_, num_current_tasks_, worker_col_, task_col_,
        fixed_quality_col_, num_pairs_);
    stats_built_.store(true, std::memory_order_release);
  });
}

const LazyPairStats::Entry& LazyPairStats::Resolve(PairQualityKind kind,
                                                   int32_t worker,
                                                   int32_t task) const {
  const size_t idx = EntryIndex(kind, worker, task);
  std::atomic<uint8_t>& state = states_[idx];
  if (state.load(std::memory_order_acquire) == kReady) return entries_[idx];

  EnsureStats();
  uint8_t expected = kEmpty;
  if (state.compare_exchange_strong(expected, kBusy,
                                    std::memory_order_acq_rel)) {
    Entry& entry = entries_[idx];
    switch (kind) {
      case PairQualityKind::kCase1:
        entry.quality = stats_->QualityCase1(task);
        entry.existence = stats_->ExistenceCase1(task);
        break;
      case PairQualityKind::kCase2:
        entry.quality = stats_->QualityCase2(worker);
        entry.existence = stats_->ExistenceCase2(worker);
        break;
      default:
        entry.quality = stats_->QualityCase3();
        entry.existence = stats_->ExistenceCase3();
        break;
    }
    materialized_count_.fetch_add(1, std::memory_order_relaxed);
    state.store(kReady, std::memory_order_release);
    return entry;
  }
  // Another thread is filling this entry: wait for its release. The fill
  // is a handful of flops, so this spin is momentary.
  while (state.load(std::memory_order_acquire) != kReady) {
    std::this_thread::yield();
  }
  return entries_[idx];
}

const Uncertain& LazyPairStats::Quality(PairQualityKind kind, int32_t worker,
                                        int32_t task) const {
  return Resolve(kind, worker, task).quality;
}

double LazyPairStats::Existence(PairQualityKind kind, int32_t worker,
                                int32_t task) const {
  return Resolve(kind, worker, task).existence;
}

void LazyPairStats::MaterializeReferenced() const {
  for (size_t idx = 0; idx < entries_.size(); ++idx) {
    if (entry_refs_[idx] == 0) continue;
    if (idx < num_current_tasks_) {
      Resolve(PairQualityKind::kCase1, /*worker=*/-1,
              static_cast<int32_t>(idx));
    } else if (idx < num_current_tasks_ + num_current_workers_) {
      Resolve(PairQualityKind::kCase2,
              static_cast<int32_t>(idx - num_current_tasks_), /*task=*/-1);
    } else {
      Resolve(PairQualityKind::kCase3, -1, -1);
    }
  }
}

bool LazyPairStats::EntryMaterialized(PairQualityKind kind, int32_t worker,
                                      int32_t task) const {
  return states_[EntryIndex(kind, worker, task)].load(
             std::memory_order_acquire) == kReady;
}

int64_t LazyPairStats::skipped_refs() const {
  int64_t skipped = 0;
  for (size_t idx = 0; idx < entries_.size(); ++idx) {
    if (entry_refs_[idx] > 0 &&
        states_[idx].load(std::memory_order_acquire) != kReady) {
      skipped += entry_refs_[idx];
    }
  }
  return skipped;
}

// ---------------------------------------------------------------------------
// PairPool

PairPool::~PairPool() {
  if (stats_sink_ != nullptr) *stats_sink_ = Stats();
}

PairPool::PairPool(PairPool&& other) noexcept { *this = std::move(other); }

PairPool& PairPool::operator=(PairPool&& other) noexcept {
  if (this == &other) return *this;
  // No stats flush for the overwritten pool: only destruction flushes.
  // (An overwritten pool's columns may already point into a Reset arena
  // — reading them here would be use-after-reset.)
  num_pairs_ = other.num_pairs_;
  num_workers_ = other.num_workers_;
  num_tasks_ = other.num_tasks_;
  num_current_workers_ = other.num_current_workers_;
  num_current_tasks_ = other.num_current_tasks_;
  explicit_predicted_count_ = other.explicit_predicted_count_;
  worker_col_ = other.worker_col_;
  task_col_ = other.task_col_;
  cost_mean_col_ = other.cost_mean_col_;
  cost_var_col_ = other.cost_var_col_;
  cost_lb_col_ = other.cost_lb_col_;
  cost_ub_col_ = other.cost_ub_col_;
  fixed_quality_col_ = other.fixed_quality_col_;
  qkind_col_ = other.qkind_col_;
  explicit_ref_col_ = other.explicit_ref_col_;
  task_offsets_ = other.task_offsets_;
  by_task_ = other.by_task_;
  worker_offsets_ = other.worker_offsets_;
  by_worker_ = other.by_worker_;
  explicit_ = std::move(other.explicit_);
  lazy_ = std::move(other.lazy_);
  owned_arena_ = std::move(other.owned_arena_);
  arena_ = other.arena_;
  stats_sink_ = other.stats_sink_;
  build_seconds_ = other.build_seconds_;

  other.num_pairs_ = 0;
  other.num_workers_ = 0;
  other.num_tasks_ = 0;
  other.num_current_workers_ = 0;
  other.num_current_tasks_ = 0;
  other.worker_col_ = nullptr;
  other.task_col_ = nullptr;
  other.cost_mean_col_ = nullptr;
  other.cost_var_col_ = nullptr;
  other.cost_lb_col_ = nullptr;
  other.cost_ub_col_ = nullptr;
  other.fixed_quality_col_ = nullptr;
  other.qkind_col_ = nullptr;
  other.explicit_ref_col_ = nullptr;
  other.task_offsets_ = nullptr;
  other.by_task_ = nullptr;
  other.worker_offsets_ = nullptr;
  other.by_worker_ = nullptr;
  other.arena_ = nullptr;
  other.stats_sink_ = nullptr;
  other.build_seconds_ = 0.0;
  return *this;
}

double PairPool::QualityMean(int32_t id) const {
  const size_t k = static_cast<size_t>(id);
  switch (QualityKind(id)) {
    case PairQualityKind::kCurrent:
      return fixed_quality_col_[k];
    case PairQualityKind::kExplicit:
    case PairQualityKind::kExplicitPredicted:
      return explicit_[static_cast<size_t>(explicit_ref_col_[k])]
          .quality.mean();
    default:
      return lazy_->QualityMean(QualityKind(id), worker_col_[k],
                                task_col_[k]);
  }
}

Uncertain PairPool::Quality(int32_t id) const {
  const size_t k = static_cast<size_t>(id);
  switch (QualityKind(id)) {
    case PairQualityKind::kCurrent:
      return Uncertain::Fixed(fixed_quality_col_[k]);
    case PairQualityKind::kExplicit:
    case PairQualityKind::kExplicitPredicted:
      return explicit_[static_cast<size_t>(explicit_ref_col_[k])].quality;
    default:
      return lazy_->Quality(QualityKind(id), worker_col_[k], task_col_[k]);
  }
}

double PairPool::Existence(int32_t id) const {
  const size_t k = static_cast<size_t>(id);
  switch (QualityKind(id)) {
    case PairQualityKind::kCurrent:
      return 1.0;
    case PairQualityKind::kExplicit:
    case PairQualityKind::kExplicitPredicted:
      return explicit_[static_cast<size_t>(explicit_ref_col_[k])].existence;
    default:
      return lazy_->Existence(QualityKind(id), worker_col_[k], task_col_[k]);
  }
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

void PairPool::AdoptArena(std::unique_ptr<PairArena> arena) {
  MQA_CHECK(arena.get() == arena_)
      << "can only adopt the arena that backs this pool";
  owned_arena_ = std::move(arena);
}

double PairPool::AvgWorkersPerTask() const {
  int64_t tasks_with_pairs = 0;
  int64_t total = 0;
  for (size_t j = 0; j < num_tasks_; ++j) {
    const int32_t degree = task_offsets_[j + 1] - task_offsets_[j];
    if (degree > 0) {
      ++tasks_with_pairs;
      total += degree;
    }
  }
  if (tasks_with_pairs == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(tasks_with_pairs);
}

void PairPool::MaterializeAllStats() const {
  if (lazy_ != nullptr) lazy_->MaterializeReferenced();
}

PairPoolStats PairPool::Stats() const {
  PairPoolStats stats;
  stats.pairs = static_cast<int64_t>(num_pairs_);
  stats.build_seconds = build_seconds_;

  int64_t column_bytes = 0;
  if (num_pairs_ > 0) {
    column_bytes = static_cast<int64_t>(
        num_pairs_ * (2 * sizeof(int32_t) + 5 * sizeof(double) +
                      sizeof(uint8_t) +
                      (explicit_ref_col_ != nullptr ? sizeof(int32_t) : 0)));
  }
  const int64_t csr_bytes = static_cast<int64_t>(
      (num_tasks_ + num_workers_ + 2) * sizeof(int32_t) +
      2 * num_pairs_ * sizeof(int32_t));
  stats.pool_bytes =
      column_bytes + csr_bytes +
      static_cast<int64_t>(explicit_.size() * sizeof(ExplicitQuality));

  if (arena_ != nullptr) {
    stats.arena_slabs = static_cast<int64_t>(arena_->slab_count());
    stats.arena_capacity_bytes = static_cast<int64_t>(arena_->capacity_bytes());
    stats.arena_peak_bytes = static_cast<int64_t>(arena_->peak_bytes());
  }

  // O(entries), not O(pairs): the lazy table counted its references at
  // construction, and the hand builder counted its explicit pairs.
  const int64_t predicted =
      explicit_predicted_count_ +
      (lazy_ != nullptr ? lazy_->predicted_refs() : 0);
  const int64_t skipped = lazy_ != nullptr ? lazy_->skipped_refs() : 0;
  stats.predicted_pairs = predicted;
  stats.stats_materialized = lazy_ != nullptr && lazy_->stats_built();
  stats.lazy_skipped_fraction =
      predicted > 0
          ? static_cast<double>(skipped) / static_cast<double>(predicted)
          : 0.0;
  return stats;
}

// ---------------------------------------------------------------------------
// PairPoolBuilder

PairPoolBuilder::PairPoolBuilder(size_t num_workers, size_t num_tasks)
    : hand_mode_(true) {
  pool_.num_workers_ = num_workers;
  pool_.num_tasks_ = num_tasks;
  pool_.num_current_workers_ = num_workers;
  pool_.num_current_tasks_ = num_tasks;
}

PairPoolBuilder::PairPoolBuilder(size_t num_workers, size_t num_tasks,
                                 size_t num_current_workers,
                                 size_t num_current_tasks, size_t num_pairs,
                                 PairArena* arena, bool lazy_stats)
    : lazy_stats_(lazy_stats) {
  pool_.num_workers_ = num_workers;
  pool_.num_tasks_ = num_tasks;
  pool_.num_current_workers_ = num_current_workers;
  pool_.num_current_tasks_ = num_current_tasks;
  if (arena != nullptr) {
    pool_.arena_ = arena;
  } else {
    pool_.owned_arena_ = std::make_unique<PairArena>();
    pool_.arena_ = pool_.owned_arena_.get();
  }
  AllocateColumns(num_pairs, /*with_explicit_refs=*/false);
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

void PairPoolBuilder::AllocateColumns(size_t num_pairs,
                                      bool with_explicit_refs) {
  PairArena* arena = pool_.arena_;
  pool_.num_pairs_ = num_pairs;
  pool_.worker_col_ = arena->AllocateArray<int32_t>(num_pairs);
  pool_.task_col_ = arena->AllocateArray<int32_t>(num_pairs);
  pool_.cost_mean_col_ = arena->AllocateArray<double>(num_pairs);
  pool_.cost_var_col_ = arena->AllocateArray<double>(num_pairs);
  pool_.cost_lb_col_ = arena->AllocateArray<double>(num_pairs);
  pool_.cost_ub_col_ = arena->AllocateArray<double>(num_pairs);
  pool_.fixed_quality_col_ = arena->AllocateArray<double>(num_pairs);
  pool_.qkind_col_ = arena->AllocateArray<uint8_t>(num_pairs);
  if (with_explicit_refs) {
    pool_.explicit_ref_col_ = arena->AllocateArray<int32_t>(num_pairs);
  }
}

void PairPoolBuilder::BuildCsr() {
  MQA_TRACE_SPAN("pool/csr");
  PairArena* arena = pool_.arena_;
  const size_t n = pool_.num_pairs_;
  const size_t num_tasks = pool_.num_tasks_;
  const size_t num_workers = pool_.num_workers_;

  pool_.task_offsets_ = arena->AllocateArray<int32_t>(num_tasks + 1);
  pool_.worker_offsets_ = arena->AllocateArray<int32_t>(num_workers + 1);
  pool_.by_task_ = arena->AllocateArray<int32_t>(n);
  pool_.by_worker_ = arena->AllocateArray<int32_t>(n);

  for (size_t j = 0; j <= num_tasks; ++j) pool_.task_offsets_[j] = 0;
  for (size_t i = 0; i <= num_workers; ++i) pool_.worker_offsets_[i] = 0;
  for (size_t k = 0; k < n; ++k) {
    ++pool_.task_offsets_[static_cast<size_t>(pool_.task_col_[k]) + 1];
    ++pool_.worker_offsets_[static_cast<size_t>(pool_.worker_col_[k]) + 1];
  }
  for (size_t j = 0; j < num_tasks; ++j) {
    pool_.task_offsets_[j + 1] += pool_.task_offsets_[j];
  }
  for (size_t i = 0; i < num_workers; ++i) {
    pool_.worker_offsets_[i + 1] += pool_.worker_offsets_[i];
  }

  // Fill in ascending pair-id order: rows end up ascending by id, exactly
  // the order the nested push_back adjacency used to produce.
  int32_t* task_cursor = arena->AllocateArray<int32_t>(num_tasks);
  int32_t* worker_cursor = arena->AllocateArray<int32_t>(num_workers);
  for (size_t j = 0; j < num_tasks; ++j) task_cursor[j] = 0;
  for (size_t i = 0; i < num_workers; ++i) worker_cursor[i] = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t j = static_cast<size_t>(pool_.task_col_[k]);
    const size_t i = static_cast<size_t>(pool_.worker_col_[k]);
    pool_.by_task_[pool_.task_offsets_[j] + task_cursor[j]++] =
        static_cast<int32_t>(k);
    pool_.by_worker_[pool_.worker_offsets_[i] + worker_cursor[i]++] =
        static_cast<int32_t>(k);
  }
}

PairPool PairPoolBuilder::Build() && {
  if (hand_mode_) {
    pool_.owned_arena_ = std::make_unique<PairArena>();
    pool_.arena_ = pool_.owned_arena_.get();
    AllocateColumns(staged_.size(), /*with_explicit_refs=*/true);
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
      if (pair.involves_predicted) ++pool_.explicit_predicted_count_;
      pool_.explicit_ref_col_[k] = static_cast<int32_t>(k);
      pool_.explicit_.push_back({pair.quality, pair.existence});
    }
  }
  BuildCsr();
  if (!hand_mode_ && lazy_stats_) {
    pool_.lazy_ = std::make_unique<LazyPairStats>(
        pool_.num_current_workers_, pool_.num_current_tasks_,
        pool_.worker_col_, pool_.task_col_, pool_.fixed_quality_col_,
        pool_.num_pairs_);
  }
  return std::move(pool_);
}

}  // namespace mqa

#ifndef MQA_CORE_PAIR_POOL_H_
#define MQA_CORE_PAIR_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/candidate_pair.h"
#include "stats/distance_stats.h"
#include "stats/uncertain.h"

namespace mqa {

class PairPool;
class PairRef;

/// How a pair's quality/existence statistics are represented in the
/// columnar pool. Current-current pairs carry their fixed score inline;
/// pairs involving predicted entities carry nothing — their Case 1-3
/// distribution lives in the pool's statistics table, keyed by the pair's
/// own worker/task index. Explicit kinds hold builder-supplied statistics
/// (hand-built pools in tests, examples and benches).
enum class PairQualityKind : uint8_t {
  kCurrent = 0,            // fixed score in the fixed-quality column
  kCase1 = 1,              // predicted worker, current task (key: task)
  kCase2 = 2,              // current worker, predicted task (key: worker)
  kCase3 = 3,              // both predicted (one global distribution)
  kExplicit = 4,           // builder-supplied, current-current
  kExplicitPredicted = 5,  // builder-supplied, involves predicted
};

/// Per-pool measurements surfaced by PairPool::Stats(). BuildPairPool
/// writes them to the sink (ProblemInstance::pool_stats) as it returns;
/// nothing a consuming algorithm does can change them afterwards.
struct PairPoolStats {
  int64_t pairs = 0;
  int64_t predicted_pairs = 0;

  /// Wall-clock seconds spent inside BuildPairPool (0 for hand-built
  /// pools). Execution state — excluded from the byte-identity contract.
  double build_seconds = 0.0;

  /// Bytes of the columns + by-task CSR adjacency (+ explicit side
  /// table).
  int64_t pool_bytes = 0;

  /// Current tasks that at least one current worker can reach (one
  /// current-current pair or more), counted by BuildPairPool; -1 until a
  /// pool is built, and for hand-built pools.
  int64_t covered_tasks = -1;
};

void* MapPages(size_t bytes);
void UnmapPages(void* data, size_t bytes);

/// The allocator of PairPoolStorage's vectors. Each block is an anonymous
/// mapping of its own: a block freed when a vector grows goes back to the
/// kernel at once instead of staying resident in the C heap, and pages
/// commit on first write. Elements are default-initialized, so sizing a
/// vector writes nothing and the build's parallel fill touches its pages
/// first.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // NOLINT(google-explicit-constructor)
  T* allocate(size_t n) { return static_cast<T*>(MapPages(n * sizeof(T))); }
  void deallocate(T* data, size_t n) { UnmapPages(data, n * sizeof(T)); }
  template <typename U>
  void construct(U* slot) { ::new (static_cast<void*>(slot)) U; }
  bool operator==(const PageAllocator&) const { return true; }
  bool operator!=(const PageAllocator&) const { return false; }
};

/// The vectors one pool build writes: the pool's columns and CSR arrays,
/// and the build's per-worker and per-task scratch. A pool reads its
/// columns from the storage it was built into, so one storage backs at
/// most one live pool: BuildPairPool fails an MQA_CHECK on a storage that
/// is still in use, and a pool hands its storage back when destroyed.
/// sim/EpochRunner keeps one storage across epochs and lends it through
/// ProblemInstance::set_pool_storage, so a warm build reuses the
/// vectors; a standalone BuildPairPool call or a hand-built pool owns a
/// fresh one. Slots past a pool's live counts hold stale values that the
/// pool never reads.
struct PairPoolStorage {
  template <typename T>
  using Vector = std::vector<T, PageAllocator<T>>;

  /// One survivor of a worker's reachability scan: the task and — for
  /// current-current pairs only — the quality score, which doubles as
  /// the PairStatistics sample.
  struct Candidate {
    int32_t task = 0;
    double score = 0.0;
  };

  /// Worker i's candidates: a span over one scan range's buffer.
  struct CandidateSpan {
    const Candidate* data;
    size_t count;
  };

  /// Returns the first `n` slots of `v`. A shorter vector is freed, as
  /// its contents are dead between builds, and replaced by one of
  /// kGrowth times the need. Sizing writes nothing, so slots no build has
  /// written yet cost address space only, while a regrowth faults every
  /// page it writes again (src/core/README.md, "Pool storage").
  static constexpr size_t kGrowth = 8;
  template <typename T>
  static T* Fit(Vector<T>* v, size_t n) {
    if (v->size() < n) {
      Vector<T>().swap(*v);
      v->resize(kGrowth * n);
    }
    return v->data();
  }

  // Pool columns, one slot per pair.
  Vector<int32_t> worker, task;
  Vector<double> cost_mean, cost_var, cost_lb, cost_ub, fixed_quality;
  Vector<uint8_t> qkind;
  Vector<int32_t> explicit_ref;  // hand-built pools only

  // CSR adjacency by task: offsets per task plus one, ids per pair.
  Vector<int32_t> task_offsets, by_task;

  // Build scratch: candidate spans and pair-slot offsets per worker,
  // box moments and CSR fill cursors per task.
  Vector<CandidateSpan> candidates;
  Vector<size_t> pair_offsets;
  Vector<BoxMoments> task_moments;
  Vector<int32_t> task_cursor;

  /// True while a pool reads from this storage.
  bool in_use = false;

  /// A pool's deleter for its storage: hands lent storage back (clears
  /// in_use) and frees storage the pool owns.
  struct Release {
    bool owned = false;
    void operator()(PairPoolStorage* storage) const {
      storage->in_use = false;
      if (owned) delete storage;
    }
  };
};

/// A borrowed, immutable range of pair ids: one CSR adjacency row, or a
/// whole id vector (the conversion is implicit, so functions taking a
/// span also take a std::vector<int32_t>).
class PairIdSpan {
 public:
  PairIdSpan() = default;
  PairIdSpan(const int32_t* begin, const int32_t* end)
      : begin_(begin), end_(end) {}
  PairIdSpan(const std::vector<int32_t>& ids)  // NOLINT(google-explicit-constructor)
      : begin_(ids.data()), end_(ids.data() + ids.size()) {}

  const int32_t* begin() const { return begin_; }
  const int32_t* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  int32_t operator[](size_t k) const { return begin_[k]; }

 private:
  const int32_t* begin_ = nullptr;
  const int32_t* end_ = nullptr;
};

/// All valid worker-and-task pairs of a ProblemInstance (the list L of
/// the greedy algorithm, paper Fig. 5 line 2) in a columnar layout:
///
///   * SoA columns (worker, task, cost moments, fixed quality score,
///     quality kind) in a PairPoolStorage — reusable across epochs;
///   * CSR adjacency by task (offset array + flat id array). A built
///     pool is worker-major, so worker i's pairs are one contiguous run
///     of ids and need no adjacency of their own;
///   * Case 1-3 statistics: predicted-pair quality/existence is not
///     stored per pair at all — a Case 1 pair's distribution is keyed by
///     its task, Case 2 by its worker, Case 3 is global, so pairs index
///     one small table that BuildPairPool fills from the current-current
///     columns (see prediction/pair_stats.h).
///
/// Access pairs through pair(id) (a PairRef view) or the scalar fast
/// paths (CostMean/QualityMean/...). PairPool is move-only; moving keeps
/// all column pointers valid (the storage's vectors stay where they are),
/// and a moved-from pool holds no storage.
class PairPool {
 public:
  PairPool() = default;
  PairPool(PairPool&&) noexcept = default;
  PairPool& operator=(PairPool&&) noexcept = default;
  PairPool(const PairPool&) = delete;
  PairPool& operator=(const PairPool&) = delete;

  size_t size() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  /// Lightweight view of one pair (see PairRef below).
  PairRef pair(int32_t id) const;

  /// Scalar fast paths for the comparison loops.
  int32_t WorkerIndex(int32_t id) const {
    return worker_col_[static_cast<size_t>(id)];
  }
  int32_t TaskIndex(int32_t id) const {
    return task_col_[static_cast<size_t>(id)];
  }
  double CostMean(int32_t id) const {
    return cost_mean_col_[static_cast<size_t>(id)];
  }
  double CostVariance(int32_t id) const {
    return cost_var_col_[static_cast<size_t>(id)];
  }
  double CostLb(int32_t id) const {
    return cost_lb_col_[static_cast<size_t>(id)];
  }
  double CostUb(int32_t id) const {
    return cost_ub_col_[static_cast<size_t>(id)];
  }
  Uncertain Cost(int32_t id) const {
    const size_t k = static_cast<size_t>(id);
    return Uncertain(cost_mean_col_[k], cost_var_col_[k], cost_lb_col_[k],
                     cost_ub_col_[k]);
  }
  PairQualityKind QualityKind(int32_t id) const {
    return static_cast<PairQualityKind>(qkind_col_[static_cast<size_t>(id)]);
  }
  bool InvolvesPredicted(int32_t id) const {
    const PairQualityKind k = QualityKind(id);
    return k != PairQualityKind::kCurrent && k != PairQualityKind::kExplicit;
  }
  double QualityMean(int32_t id) const;
  /// The full quality distribution, assembled from the fixed-score
  /// column, the Case 1-3 table, or the explicit side table.
  Uncertain Quality(int32_t id) const;
  double Existence(int32_t id) const;

  /// Materialized copy of one pair (tests, debugging, cold paths).
  CandidatePair GetPair(int32_t id) const;

  /// CSR adjacency row: ids of the pairs whose task index is `task`,
  /// ascending by pair id.
  PairIdSpan PairsByTask(int32_t task) const {
    const size_t j = static_cast<size_t>(task);
    return {by_task_ + task_offsets_[j], by_task_ + task_offsets_[j + 1]};
  }

  /// Adjacency slot counts (the instance's task/worker vector sizes the
  /// pool was built over).
  size_t num_tasks() const { return num_tasks_; }
  size_t num_workers() const { return num_workers_; }

  /// Current measurements; O(1) in the number of pairs.
  PairPoolStats Stats() const;

  /// Build wall time and covered-task count, recorded by BuildPairPool
  /// and surfaced via Stats().
  void set_build_seconds(double s) { build_seconds_ = s; }
  void set_covered_tasks(int64_t n) { covered_tasks_ = n; }

 private:
  friend class PairPoolBuilder;
  friend class PairRef;

  size_t num_pairs_ = 0;
  size_t num_workers_ = 0;
  size_t num_tasks_ = 0;
  size_t num_current_workers_ = 0;
  size_t num_current_tasks_ = 0;
  int64_t predicted_pairs_ = 0;

  // SoA columns (in storage_).
  int32_t* worker_col_ = nullptr;
  int32_t* task_col_ = nullptr;
  double* cost_mean_col_ = nullptr;
  double* cost_var_col_ = nullptr;
  double* cost_lb_col_ = nullptr;
  double* cost_ub_col_ = nullptr;
  double* fixed_quality_col_ = nullptr;  // kCurrent pairs only
  uint8_t* qkind_col_ = nullptr;
  int32_t* explicit_ref_col_ = nullptr;  // kExplicit* pairs only

  // CSR adjacency by task (in storage_). Offsets have num_tasks_ + 1
  // entries.
  int32_t* task_offsets_ = nullptr;
  int32_t* by_task_ = nullptr;

  // One quality distribution with its existence probability.
  struct QualityEntry {
    Uncertain quality;
    double existence = 1.0;
  };
  // The entry behind a Case 1-3 or explicit pair (not kCurrent).
  const QualityEntry& Entry(size_t k) const;

  // Hand-built pools: one entry per pair, via explicit_ref_col_.
  std::vector<QualityEntry> explicit_;
  // Built pools with predicted entities: [0, nct) Case 1 per current
  // task, [nct, nct + ncw) Case 2 per current worker, [nct + ncw] Case 3.
  std::vector<QualityEntry> case_stats_;

  std::unique_ptr<PairPoolStorage, PairPoolStorage::Release> storage_;
  double build_seconds_ = 0.0;
  int64_t covered_tasks_ = -1;
};

/// A lightweight view of one pool pair — the successor of the materialized
/// CandidatePair on all algorithm paths. Copying is two words; accessors
/// read straight from the columns and tables.
class PairRef {
 public:
  PairRef(const PairPool* pool, int32_t id) : pool_(pool), id_(id) {}

  int32_t id() const { return id_; }
  int32_t worker_index() const { return pool_->WorkerIndex(id_); }
  int32_t task_index() const { return pool_->TaskIndex(id_); }
  bool involves_predicted() const { return pool_->InvolvesPredicted(id_); }

  double cost_mean() const { return pool_->CostMean(id_); }
  double cost_variance() const { return pool_->CostVariance(id_); }
  double cost_lb() const { return pool_->CostLb(id_); }
  double cost_ub() const { return pool_->CostUb(id_); }
  Uncertain cost() const { return pool_->Cost(id_); }

  double quality_mean() const { return pool_->QualityMean(id_); }
  Uncertain quality() const { return pool_->Quality(id_); }
  double existence() const { return pool_->Existence(id_); }

  /// The Eq. 7/10 comparison quality — the raw quality distribution (see
  /// model/candidate_pair.h for why existence is not folded in).
  Uncertain EffectiveQuality() const { return quality(); }

  /// The conservative Bernoulli(existence)-thinned variant.
  Uncertain ExistenceThinnedQuality() const {
    return involves_predicted() ? quality().BernoulliThin(existence())
                                : quality();
  }

 private:
  const PairPool* pool_;
  int32_t id_;
};

inline PairRef PairPool::pair(int32_t id) const { return PairRef(this, id); }

/// Constructs PairPools. Two modes:
///
///  * hand-build (tests, examples, benches): Add() explicit CandidatePairs
///    in any order, then Build() — per-pair statistics are stored verbatim
///    in the explicit side table;
///  * column mode (BuildPairPool): the builder takes its storage first,
///    so the build can keep its scratch there; once the pair count is
///    known, AllocateColumns() sizes the columns, which are filled in
///    place (possibly by several threads, each writing disjoint slots),
///    ComputeCaseStats() fills the Case 1-3 table from them, then Build()
///    adds the CSR adjacency.
class PairPoolBuilder {
 public:
  /// Hand-build mode over `num_workers` x `num_tasks` adjacency slots.
  PairPoolBuilder(size_t num_workers, size_t num_tasks);

  /// Column mode into `storage`, which must not back a live pool; null
  /// gives the pool a storage of its own.
  PairPoolBuilder(size_t num_workers, size_t num_tasks,
                  size_t num_current_workers, size_t num_current_tasks,
                  PairPoolStorage* storage);

  /// Hand-build mode: appends `pair`, returns its id.
  int32_t Add(const CandidatePair& pair);

  /// The storage the pool is built into (column mode's build scratch
  /// lives there too).
  PairPoolStorage& storage() { return *pool_.storage_; }

  /// Column mode: sizes the columns for `num_pairs` pairs.
  void AllocateColumns(size_t num_pairs);

  /// Column mode: mutable columns for in-place filling (all `num_pairs`
  /// slots must be written before Build()).
  int32_t* worker_col() { return pool_.worker_col_; }
  int32_t* task_col() { return pool_.task_col_; }
  double* cost_mean_col() { return pool_.cost_mean_col_; }
  double* cost_var_col() { return pool_.cost_var_col_; }
  double* cost_lb_col() { return pool_.cost_lb_col_; }
  double* cost_ub_col() { return pool_.cost_ub_col_; }
  double* fixed_quality_col() { return pool_.fixed_quality_col_; }
  uint8_t* qkind_col() { return pool_.qkind_col_; }

  /// Column mode, once every slot is filled: replays PairStatistics over
  /// the current-current columns and stores one Case 1 entry per current
  /// task, one Case 2 entry per current worker and the Case 3 entry.
  /// Required before Build() when any pair involves a predicted entity.
  void ComputeCaseStats();

  /// Finalizes: builds the by-task CSR adjacency. The builder is
  /// consumed.
  PairPool Build() &&;

 private:
  void BuildCsr();

  PairPool pool_;
  std::vector<CandidatePair> staged_;  // hand-build mode only
  bool hand_mode_ = false;
};

}  // namespace mqa

#endif  // MQA_CORE_PAIR_POOL_H_

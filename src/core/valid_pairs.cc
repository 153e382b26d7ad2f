#include "core/valid_pairs.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "exec/pair_arena.h"
#include "exec/region_sharder.h"
#include "exec/thread_pool.h"
#include "index/candidate_scan.h"
#include "quality/quality_model.h"
#include "stats/distance_stats.h"

namespace mqa {

namespace {

/// One survivor of a worker's reachability scan: the task, the exact
/// worker-to-task box min-distance, and — for current-current pairs only —
/// the quality score, which doubles as the PairStatistics sample.
struct Candidate {
  int32_t task = 0;
  double min_dist = 0.0;
  double score = 0.0;
};

/// Worker i's candidates, resolved to a span over an arena buffer.
struct WorkerCandidates {
  const Candidate* data = nullptr;
  size_t count = 0;
};

/// Pass 1 of the builder: worker `i`'s CanReach-surviving candidates in
/// ascending task order, scoring the current-current ones. Pure given
/// (instance, index) — safe to run for different workers concurrently.
/// Appends to `out` (any push_back(Candidate) container).
template <typename CandidateSink>
void CollectCandidates(const ProblemInstance& instance,
                       const QualityModel& model, const SpatialIndex& index,
                       size_t i, double max_deadline, size_t num_tasks,
                       std::vector<std::pair<int32_t, double>>* scratch,
                       CandidateSink* out) {
  const Worker& w = instance.workers()[i];
  ForEachReachableCandidate(index, w, max_deadline, num_tasks, scratch,
                            [&](int32_t jj, double min_dist) {
    const Task& t = instance.tasks()[static_cast<size_t>(jj)];
    if (!instance.CanReachAtDistance(w, t, min_dist)) return;
    Candidate c;
    c.task = jj;
    c.min_dist = min_dist;
    if (!w.predicted && !t.predicted) c.score = model.Score(w, t);
    out->push_back(c);
  });
}

/// Pass 2: fills column slot `at` for worker `i` and candidate `c`. The
/// cost moments are computed here (same closed-form calls, same order as
/// the eager builder); quality is the fixed score for current-current
/// pairs and a lazy-table kind tag otherwise — the expensive Cases 1-3
/// statistics are *not* computed at build time. Pure given (instance, c)
/// — byte-identical regardless of the thread (or order) it runs on.
void FillPairSlot(const ProblemInstance& instance, PairPoolBuilder* builder,
                  size_t at, size_t i, const Candidate& c) {
  const Worker& w = instance.workers()[i];
  const Task& t = instance.tasks()[static_cast<size_t>(c.task)];

  builder->worker_col()[at] = static_cast<int32_t>(i);
  builder->task_col()[at] = c.task;

  const Uncertain cost = DistanceBetween(w.location, t.location)
                             .AffineTransform(instance.unit_price(), 0.0);
  builder->cost_mean_col()[at] = cost.mean();
  builder->cost_var_col()[at] = cost.variance();
  builder->cost_lb_col()[at] = cost.lb();
  builder->cost_ub_col()[at] = cost.ub();

  PairQualityKind kind;
  double fixed_quality = 0.0;
  if (!w.predicted && !t.predicted) {
    kind = PairQualityKind::kCurrent;
    fixed_quality = c.score;
  } else if (w.predicted && !t.predicted) {
    kind = PairQualityKind::kCase1;
  } else if (!w.predicted && t.predicted) {
    kind = PairQualityKind::kCase2;
  } else {
    kind = PairQualityKind::kCase3;
  }
  builder->fixed_quality_col()[at] = fixed_quality;
  builder->qkind_col()[at] = static_cast<uint8_t>(kind);
}

/// The sharded parallel builder. Produces a pool byte-identical to the
/// sequential path below by splitting the work into pure per-worker
/// pieces and keeping every order-sensitive step on one thread:
///   1. (parallel, per region shard) reachability scans fill per-worker
///      candidate spans in *shard-pinned* arena buffers — each shard
///      queries its own border-banded task index, or the caller's
///      prebuilt index when one exists;
///   2. (sequential) a prefix sum over per-worker candidate counts
///      positions every pair slot — the same worker-major layout the
///      sequential loop emits;
///   3. (parallel) pair columns fill into their final slots, fanned per
///      worker (on skewed instances one region can own most candidates,
///      and per-shard items would serialize exactly the heavy part);
///   4. (sequential) the CSR adjacency fills in ascending pair-id order.
/// There is no statistics phase: predicted-pair quality/existence is
/// deferred to the pool's lazy table, whose replay reads the columns —
/// identical bytes no matter how they were produced.
PairPool BuildPairPoolSharded(const ProblemInstance& instance,
                              const PairPoolOptions& options,
                              const SpatialIndex* prebuilt, size_t num_workers,
                              size_t num_tasks, double max_deadline,
                              bool has_predicted, ThreadPool* pool,
                              PairArena* arena) {
  const QualityModel& model = *instance.quality_model();
  const ShardingPlan plan =
      ShardByRegion(instance, num_workers, num_tasks, max_deadline,
                    /*with_task_entries=*/prebuilt == nullptr);
  const size_t num_shards = plan.shards.size();

  // Per-shard task indexes only when no prebuilt index exists: the
  // simulator's TaskIndexCache is maintained incrementally precisely so
  // pair generation never re-buckets tasks, and its view is safe for
  // concurrent queries.
  std::vector<std::unique_ptr<SpatialIndex>> shard_indexes(
      prebuilt == nullptr ? num_shards : 0);

  // Shard arenas are created on the sequential spine (shard() is not
  // thread-safe); inside the fan-out each shard bumps only its own.
  for (size_t s = 0; s < num_shards; ++s) arena->shard(s);

  WorkerCandidates* candidates =
      arena->AllocateArray<WorkerCandidates>(num_workers);
  for (size_t i = 0; i < num_workers; ++i) candidates[i] = {};

  pool->ParallelFor(static_cast<int64_t>(num_shards), [&](int64_t s) {
    MQA_TRACE_SPAN_ARG("pool/shard_scan", s);
    const RegionShard& shard = plan.shards[static_cast<size_t>(s)];
    PairArena* shard_arena = arena->shard(static_cast<size_t>(s));
    const SpatialIndex* index = prebuilt;
    if (index == nullptr) {
      auto owned = CreateSpatialIndex(
          ResolveBackend(options.backend, shard.worker_indices.size(),
                         shard.task_entries.size()));
      owned->BulkLoad(shard.task_entries);
      shard_indexes[static_cast<size_t>(s)] = std::move(owned);
      index = shard_indexes[static_cast<size_t>(s)].get();
    }
    // One contiguous buffer per shard; per-worker start offsets resolve
    // to spans once the buffer stops growing (end of this item).
    ArenaVector<Candidate> buffer(shard_arena);
    ArenaVector<size_t> starts(shard_arena);
    std::vector<std::pair<int32_t, double>> scratch;
    for (const int32_t wi : shard.worker_indices) {
      starts.push_back(buffer.size());
      CollectCandidates(instance, model, *index, static_cast<size_t>(wi),
                        max_deadline, num_tasks, &scratch, &buffer);
    }
    for (size_t k = 0; k < shard.worker_indices.size(); ++k) {
      const size_t wi = static_cast<size_t>(shard.worker_indices[k]);
      const size_t end =
          k + 1 < starts.size() ? starts[k + 1] : buffer.size();
      candidates[wi] = {buffer.data() + starts[k], end - starts[k]};
    }
  });

  size_t* offsets = arena->AllocateArray<size_t>(num_workers + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < num_workers; ++i) {
    offsets[i + 1] = offsets[i] + candidates[i].count;
  }

  PairPoolBuilder builder(instance.workers().size(), instance.tasks().size(),
                          instance.num_current_workers(),
                          instance.num_current_tasks(), offsets[num_workers],
                          arena, has_predicted);
  {
    MQA_TRACE_SPAN("pool/fill");
    pool->ParallelFor(static_cast<int64_t>(num_workers), [&](int64_t wi) {
      const size_t i = static_cast<size_t>(wi);
      size_t at = offsets[i];
      const WorkerCandidates& wc = candidates[i];
      for (size_t k = 0; k < wc.count; ++k) {
        FillPairSlot(instance, &builder, at++, i, wc.data[k]);
      }
    });
  }
  return std::move(builder).Build();
}

PairPool BuildPairPoolSequential(const ProblemInstance& instance,
                                 const PairPoolOptions& options,
                                 const SpatialIndex* prebuilt,
                                 size_t num_workers, size_t num_tasks,
                                 double max_deadline, bool has_predicted,
                                 PairArena* arena) {
  const QualityModel& model = *instance.quality_model();

  const SpatialIndex* index = prebuilt;
  std::unique_ptr<SpatialIndex> owned;
  if (index == nullptr) {
    owned = CreateSpatialIndex(
        ResolveBackend(options.backend, num_workers, num_tasks));
    std::vector<IndexEntry> entries;
    entries.reserve(num_tasks);
    for (size_t j = 0; j < num_tasks; ++j) {
      entries.push_back({static_cast<int64_t>(j),
                         instance.tasks()[j].location,
                         instance.tasks()[j].deadline});
    }
    owned->BulkLoad(entries);
    index = owned.get();
  }

  // Pass 1: candidates of all workers, worker-major (the final pair
  // order), into one arena buffer.
  ArenaVector<Candidate> buffer(arena);
  size_t* offsets = arena->AllocateArray<size_t>(num_workers + 1);
  offsets[0] = 0;
  {
    MQA_TRACE_SPAN("pool/scan");
    std::vector<std::pair<int32_t, double>> scratch;
    for (size_t i = 0; i < num_workers; ++i) {
      CollectCandidates(instance, model, *index, i, max_deadline, num_tasks,
                        &scratch, &buffer);
      offsets[i + 1] = buffer.size();
    }
  }

  // Pass 2: fill the columns in place.
  PairPoolBuilder builder(instance.workers().size(), instance.tasks().size(),
                          instance.num_current_workers(),
                          instance.num_current_tasks(), offsets[num_workers],
                          arena, has_predicted);
  {
    MQA_TRACE_SPAN("pool/fill");
    for (size_t i = 0; i < num_workers; ++i) {
      for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        FillPairSlot(instance, &builder, k, i, buffer[k]);
      }
    }
  }
  return std::move(builder).Build();
}

}  // namespace

PairPool BuildPairPool(const ProblemInstance& instance,
                       const PairPoolOptions& options) {
  const QualityModel* model = instance.quality_model();
  MQA_CHECK(model != nullptr) << "instance lacks a quality model";

  const size_t num_workers = options.include_predicted
                                 ? instance.workers().size()
                                 : instance.num_current_workers();
  const size_t num_tasks = options.include_predicted
                               ? instance.tasks().size()
                               : instance.num_current_tasks();

  // Caller-provided index (covering *all* tasks; ids past num_tasks are
  // filtered in the scan), or null when one must be built — per shard on
  // the parallel path, once on the sequential path.
  const SpatialIndex* prebuilt =
      options.task_index != nullptr ? options.task_index
                                    : instance.task_index();
  if (prebuilt != nullptr) {
    MQA_CHECK(prebuilt->size() == instance.tasks().size())
        << "task index covers " << prebuilt->size() << " entries but the "
        << "instance has " << instance.tasks().size() << " tasks";
  }

  // The radius bound uses the largest candidate deadline; CanReach then
  // applies each task's exact deadline, so this only over-approximates.
  double max_deadline = 0.0;
  for (size_t j = 0; j < num_tasks; ++j) {
    max_deadline = std::max(max_deadline, instance.tasks()[j].deadline);
  }

  const bool has_predicted =
      options.include_predicted && (instance.num_predicted_workers() > 0 ||
                                    instance.num_predicted_tasks() > 0);

  // Arena precedence: options, then the instance (the simulator's
  // per-epoch arena), then a private arena the pool owns.
  PairArena* arena =
      options.arena != nullptr ? options.arena : instance.pair_arena();
  std::unique_ptr<PairArena> owned_arena;
  if (arena == nullptr) {
    owned_arena = std::make_unique<PairArena>();
    arena = owned_arena.get();
  }

  ThreadPool* thread_pool = options.thread_pool != nullptr
                                ? options.thread_pool
                                : instance.thread_pool();
  const auto t_build = std::chrono::steady_clock::now();
  MQA_TRACE_SPAN("pool/build");
  PairPool pool =
      (thread_pool != nullptr && thread_pool->num_threads() > 1 &&
       num_workers >= kMinShardableWorkers)
          ? BuildPairPoolSharded(instance, options, prebuilt, num_workers,
                                 num_tasks, max_deadline, has_predicted,
                                 thread_pool, arena)
          : BuildPairPoolSequential(instance, options, prebuilt, num_workers,
                                    num_tasks, max_deadline, has_predicted,
                                    arena);
  pool.set_build_seconds(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_build)
                             .count());
  MQA_METRIC_COUNT("mqa.pool.pairs_total", static_cast<int64_t>(pool.size()));
  if (owned_arena != nullptr) pool.AdoptArena(std::move(owned_arena));
  pool.set_stats_sink(options.stats_sink != nullptr ? options.stats_sink
                                                    : instance.pool_stats());
  if (options.eager_stats) pool.MaterializeAllStats();
  return pool;
}

PairPool BuildPairPool(const ProblemInstance& instance,
                       bool include_predicted) {
  PairPoolOptions options;
  options.include_predicted = include_predicted;
  return BuildPairPool(instance, options);
}

}  // namespace mqa

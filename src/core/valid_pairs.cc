#include "core/valid_pairs.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "exec/thread_pool.h"
#include "index/rtree_index.h"
#include "obs/trace.h"
#include "quality/quality_model.h"
#include "stats/distance_stats.h"

namespace mqa {

namespace {

using Candidate = PairPoolStorage::Candidate;
using CandidateSpan = PairPoolStorage::CandidateSpan;

/// Scan: appends worker `i`'s CanReach-surviving candidates to `out` in
/// ascending task order, scoring the current-current ones. The worker's
/// one QueryReachable call marks each hit below `num_tasks` (an
/// instance's task index may cover more tasks than participate) in the
/// `hits` bitmap over task ids and keeps its min-distance in `min_dist`;
/// reading the set bits back word by word, and clearing them, yields the
/// hits in ascending id whatever order the index visited them in, and
/// leaves `hits` all zero. CanReachAtDistance is stricter than the query
/// only for predicted workers (one instance less deadline). Pure given
/// (instance, index) — safe to run for different workers concurrently,
/// each with its own `hits` and `min_dist`.
void CollectCandidates(const ProblemInstance& instance,
                       const QualityModel& model, const SpatialIndex& index,
                       size_t i, double max_deadline, size_t num_tasks,
                       uint64_t* hits, double* min_dist,
                       std::vector<Candidate>* out) {
  const Worker& w = instance.workers()[i];
  if (w.velocity <= 0.0) return;  // CanReach rejects every task
  index.QueryReachable(w.location, w.velocity, max_deadline,
                       [&](int64_t id, const BBox&, double d) {
                         const auto j = static_cast<size_t>(id);
                         if (j >= num_tasks) return;
                         hits[j / 64] |= uint64_t{1} << (j % 64);
                         min_dist[j] = d;
                       });
  const size_t num_words = (num_tasks + 63) / 64;
  for (size_t word = 0; word < num_words; ++word) {
    uint64_t bits = hits[word];
    if (bits == 0) continue;
    hits[word] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const size_t j = word * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      const Task& t = instance.tasks()[j];
      if (!instance.CanReachAtDistance(w, t, min_dist[j])) continue;
      Candidate c;
      c.task = static_cast<int32_t>(j);
      if (!w.predicted && !t.predicted) c.score = model.Score(w, t);
      out->push_back(c);
    }
  }
}

/// Fill: writes column slot `at` for worker `i` and candidate `c`: the
/// cost moments, and the fixed score for current-current pairs or the
/// Case 1-3 kind tag otherwise. `worker_moments` is MomentsOf worker i's
/// box and `task_moments` holds MomentsOf every task's; `task_moments` is
/// null (and `worker_moments` unused) when the pool has no predicted
/// entity, as every pair is then a point pair, which needs no moments.
/// Pure given (instance, c, moments) — byte-identical regardless of the
/// thread (or order) it runs on.
void FillPairSlot(const ProblemInstance& instance,
                  const BoxMoments& worker_moments,
                  const BoxMoments* task_moments, PairPoolBuilder* builder,
                  size_t at, size_t i, const Candidate& c) {
  const Worker& w = instance.workers()[i];
  const Task& t = instance.tasks()[static_cast<size_t>(c.task)];

  builder->worker_col()[at] = static_cast<int32_t>(i);
  builder->task_col()[at] = c.task;

  const Uncertain distance =
      task_moments == nullptr
          ? DistanceBetween(w.location, t.location)
          : DistanceBetween(w.location, worker_moments, t.location,
                            task_moments[c.task]);
  const Uncertain cost = distance.AffineTransform(instance.unit_price(), 0.0);
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

/// Runs fn(0), ..., fn(n - 1): on `exec` when there is one, else on the
/// calling thread in index order.
void RunItems(ThreadPool* exec, size_t n,
              const std::function<void(int64_t)>& fn) {
  if (exec != nullptr) {
    exec->ParallelFor(static_cast<int64_t>(n), fn);
    return;
  }
  for (size_t k = 0; k < n; ++k) fn(static_cast<int64_t>(k));
}

}  // namespace

PairPool BuildPairPool(const ProblemInstance& instance,
                       bool include_predicted) {
  const QualityModel* model = instance.quality_model();
  MQA_CHECK(model != nullptr) << "instance lacks a quality model";

  const size_t num_workers = include_predicted
                                 ? instance.workers().size()
                                 : instance.num_current_workers();
  const size_t num_tasks = include_predicted ? instance.tasks().size()
                                             : instance.num_current_tasks();

  // The radius bound uses the largest candidate deadline; CanReach then
  // applies each task's exact deadline, so this only over-approximates.
  double max_deadline = 0.0;
  for (size_t j = 0; j < num_tasks; ++j) {
    max_deadline = std::max(max_deadline, instance.tasks()[j].deadline);
  }

  const bool has_predicted =
      include_predicted && (instance.num_predicted_workers() > 0 ||
                            instance.num_predicted_tasks() > 0);

  ThreadPool* exec = instance.thread_pool();
  if (exec != nullptr &&
      (exec->num_threads() <= 1 || num_workers < kMinParallelWorkers)) {
    exec = nullptr;
  }

  const auto t_build = std::chrono::steady_clock::now();
  MQA_TRACE_SPAN("pool/build");

  // The instance's storage (the epoch runner's, kept across epochs), or
  // one the pool owns. The build's scratch lives there too.
  PairPoolBuilder builder(instance.workers().size(), instance.tasks().size(),
                          instance.num_current_workers(),
                          instance.num_current_tasks(),
                          instance.pool_storage());
  PairPoolStorage& storage = builder.storage();

  // 1. The instance's task index (covering *all* tasks; ids past
  // num_tasks are filtered in the scan), or an R-tree loaded here over the
  // participating tasks. Queries are const and safe to run concurrently.
  const SpatialIndex* index = instance.task_index();
  RTreeIndex owned_index;
  if (index != nullptr) {
    MQA_CHECK(index->size() == instance.tasks().size())
        << "task index covers " << index->size() << " entries but the "
        << "instance has " << instance.tasks().size() << " tasks";
  } else {
    std::vector<IndexEntry> entries;
    entries.reserve(num_tasks);
    for (size_t j = 0; j < num_tasks; ++j) {
      entries.push_back({static_cast<int64_t>(j),
                         instance.tasks()[j].location,
                         instance.tasks()[j].deadline});
    }
    owned_index.BulkLoad(entries);
    index = &owned_index;
  }

  // 2. Scan: contiguous worker ranges, one per pool thread (a single
  // range without one), each appending its workers' candidates to one
  // buffer of its own. Candidates stay per worker, so the range
  // boundaries only decide which buffer holds them. Each range fills a
  // local vector and moves it into `buffers` once, at its end, which
  // keeps the data alive for the fill without the ranges writing to
  // neighbouring vector headers as they grow. The hit bitmap and the
  // min-distance slots are the range's own too.
  const size_t num_ranges =
      exec != nullptr ? static_cast<size_t>(exec->num_threads()) : 1;
  CandidateSpan* candidates =
      PairPoolStorage::Fit(&storage.candidates, num_workers);
  std::vector<std::vector<Candidate>> buffers(num_ranges);
  RunItems(exec, num_ranges, [&](int64_t r) {
    MQA_TRACE_SPAN_ARG("pool/scan", r);
    const size_t range = static_cast<size_t>(r);
    const size_t lo = num_workers * range / num_ranges;
    const size_t hi = num_workers * (range + 1) / num_ranges;
    std::vector<Candidate> buffer;
    std::vector<uint64_t> hits((num_tasks + 63) / 64);
    std::vector<double> min_dist(num_tasks);
    for (size_t i = lo; i < hi; ++i) {
      CollectCandidates(instance, *model, *index, i, max_deadline, num_tasks,
                        hits.data(), min_dist.data(), &buffer);
      candidates[i].count = buffer.size();  // end offset for now
    }
    // The buffer has stopped growing: resolve end offsets to spans.
    size_t begin = 0;
    for (size_t i = lo; i < hi; ++i) {
      const size_t end = candidates[i].count;
      candidates[i] = {buffer.data() + begin, end - begin};
      begin = end;
    }
    buffers[range] = std::move(buffer);  // moves the block, not the data
  });

  // 3. A prefix sum over per-worker counts positions every pair slot in
  // worker-major order.
  size_t* offsets =
      PairPoolStorage::Fit(&storage.pair_offsets, num_workers + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < num_workers; ++i) {
    offsets[i + 1] = offsets[i] + candidates[i].count;
  }

  // 4. Fill the columns, fanned per worker (one crowded range must not
  // serialize the heavy part). With predicted entities, each entity's box
  // moments (Eqs. 2-5's per-endpoint inputs) are computed once — every
  // task's here on the calling thread, each worker's once per fill item —
  // instead of once per pair.
  builder.AllocateColumns(offsets[num_workers]);
  {
    MQA_TRACE_SPAN("pool/fill");
    BoxMoments* task_moments = nullptr;
    if (has_predicted) {
      task_moments = PairPoolStorage::Fit(&storage.task_moments, num_tasks);
      for (size_t j = 0; j < num_tasks; ++j) {
        task_moments[j] = MomentsOf(instance.tasks()[j].location);
      }
    }
    RunItems(exec, num_workers, [&](int64_t wi) {
      const size_t i = static_cast<size_t>(wi);
      const CandidateSpan& wc = candidates[i];
      const BoxMoments worker_moments =
          task_moments != nullptr ? MomentsOf(instance.workers()[i].location)
                                  : BoxMoments{};
      for (size_t k = 0; k < wc.count; ++k) {
        FillPairSlot(instance, worker_moments, task_moments, &builder,
                     offsets[i] + k, i, wc.data[k]);
      }
    });
  }

  // 5. Case 1-3 statistics: one sequential replay of the current-current
  // columns in pair-id order, so the moments are the same at any thread
  // count.
  if (has_predicted) builder.ComputeCaseStats();

  // 6. The CSR adjacency, in ascending pair-id order.
  PairPool result = std::move(builder).Build();

  // 7. Covered current tasks. Pair ids are worker-major with the current
  // workers first, and each by-task row ascends by id, so a current task
  // has a current-current pair exactly when its row's first pair does.
  const size_t num_current_workers = instance.num_current_workers();
  int64_t covered = 0;
  for (size_t j = 0; j < instance.num_current_tasks(); ++j) {
    const PairIdSpan row = result.PairsByTask(static_cast<int32_t>(j));
    if (!row.empty() && static_cast<size_t>(result.WorkerIndex(row[0])) <
                            num_current_workers) {
      ++covered;
    }
  }
  result.set_covered_tasks(covered);
  result.set_build_seconds(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t_build)
                               .count());
  if (instance.pool_stats() != nullptr) *instance.pool_stats() = result.Stats();
  return result;
}

}  // namespace mqa

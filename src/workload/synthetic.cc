#include "workload/synthetic.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "exec/thread_pool.h"

namespace mqa {

namespace {

// Distinct stream tags so worker and task chunk seeds never collide even
// at equal chunk ordinals.
constexpr uint64_t kWorkerStreamTag = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kTaskStreamTag = 0xc2b2ae3d27d4eb4full;

// Spreads `total` entities evenly over `instances` batches; the first
// (total % instances) batches get one extra.
std::vector<int64_t> EvenSplit(int64_t total, int instances) {
  std::vector<int64_t> out(static_cast<size_t>(instances),
                           total / instances);
  for (int64_t k = 0; k < total % instances; ++k) {
    ++out[static_cast<size_t>(k)];
  }
  return out;
}

// starts[p] = global index of batch p's first entity; starts.back() = total.
std::vector<int64_t> BatchStarts(const std::vector<int64_t>& per_batch) {
  std::vector<int64_t> starts(per_batch.size() + 1, 0);
  for (size_t p = 0; p < per_batch.size(); ++p) {
    starts[p + 1] = starts[p] + per_batch[p];
  }
  return starts;
}

// Batch containing global entity index g.
size_t BatchOf(const std::vector<int64_t>& starts, int64_t g) {
  return static_cast<size_t>(
      std::upper_bound(starts.begin(), starts.end(), g) - starts.begin() - 1);
}

}  // namespace

void RunWorkloadChunks(int64_t num_chunks, ThreadPool* pool,
                       const std::function<void(int64_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(num_chunks, fn);
  } else {
    for (int64_t c = 0; c < num_chunks; ++c) fn(c);
  }
}

ArrivalStream GenerateSynthetic(const SyntheticConfig& config,
                                ThreadPool* pool) {
  MQA_CHECK(config.num_instances >= 1) << "need at least one instance";
  MQA_CHECK(config.velocity_lo > 0.0 && config.velocity_lo <= config.velocity_hi)
      << "invalid velocity range";
  MQA_CHECK(config.deadline_lo >= 0.0 && config.deadline_lo <= config.deadline_hi)
      << "invalid deadline range";

  ArrivalStream stream;
  stream.workers.resize(static_cast<size_t>(config.num_instances));
  stream.tasks.resize(static_cast<size_t>(config.num_instances));

  const std::vector<int64_t> workers_per =
      EvenSplit(config.num_workers, config.num_instances);
  const std::vector<int64_t> tasks_per =
      EvenSplit(config.num_tasks, config.num_instances);
  const std::vector<int64_t> worker_starts = BatchStarts(workers_per);
  const std::vector<int64_t> task_starts = BatchStarts(tasks_per);
  for (int p = 0; p < config.num_instances; ++p) {
    stream.workers[static_cast<size_t>(p)].resize(
        static_cast<size_t>(workers_per[static_cast<size_t>(p)]));
    stream.tasks[static_cast<size_t>(p)].resize(
        static_cast<size_t>(tasks_per[static_cast<size_t>(p)]));
  }

  const int64_t worker_chunks =
      (config.num_workers + kWorkloadChunk - 1) / kWorkloadChunk;
  const int64_t task_chunks =
      (config.num_tasks + kWorkloadChunk - 1) / kWorkloadChunk;

  // Each chunk owns kWorkloadChunk consecutive global entity indices and
  // an independent RNG stream derived from (seed, kind, chunk) — never
  // from the thread that happens to run it, which is what makes the
  // output thread-count-invariant.
  const auto fill_chunk = [&](int64_t c) {
    if (c < worker_chunks) {
      Rng rng(ShardSeed(config.seed ^ kWorkerStreamTag, c));
      const int64_t lo = c * kWorkloadChunk;
      const int64_t hi = std::min(config.num_workers, lo + kWorkloadChunk);
      for (int64_t g = lo; g < hi; ++g) {
        const size_t p = BatchOf(worker_starts, g);
        Worker w;
        w.id = g;
        w.location = BBox::FromPoint(SampleLocation(config.worker_dist, &rng));
        w.velocity = rng.GaussianInRange(config.velocity_lo, config.velocity_hi);
        w.arrival = static_cast<Timestamp>(p);
        stream.workers[p][static_cast<size_t>(g - worker_starts[p])] = w;
      }
    } else {
      const int64_t tc = c - worker_chunks;
      Rng rng(ShardSeed(config.seed ^ kTaskStreamTag, tc));
      const int64_t lo = tc * kWorkloadChunk;
      const int64_t hi = std::min(config.num_tasks, lo + kWorkloadChunk);
      for (int64_t g = lo; g < hi; ++g) {
        const size_t p = BatchOf(task_starts, g);
        Task t;
        t.id = g;
        t.location = BBox::FromPoint(SampleLocation(config.task_dist, &rng));
        t.deadline = rng.GaussianInRange(config.deadline_lo, config.deadline_hi);
        t.arrival = static_cast<Timestamp>(p);
        stream.tasks[p][static_cast<size_t>(g - task_starts[p])] = t;
      }
    }
  };

  RunWorkloadChunks(worker_chunks + task_chunks, pool, fill_chunk);
  return stream;
}

}  // namespace mqa

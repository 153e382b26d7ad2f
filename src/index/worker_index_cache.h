#ifndef MQA_INDEX_WORKER_INDEX_CACHE_H_
#define MQA_INDEX_WORKER_INDEX_CACHE_H_

#include "index/entity_index_cache.h"
#include "model/worker.h"

namespace mqa {

/// Trait instantiation behind WorkerIndexCache: workers are bucketed by
/// their location box and carry their *velocity* in the IndexEntry bound
/// slot. That makes QueryReachable answer the task-centric reachability
/// question by symmetry: a worker w can serve a task t iff
///
///   MinDistance(w.box, t.box) <= w.velocity * t.deadline,
///
/// which is exactly the QueryReachable visit condition
/// `min_dist <= velocity * min(entry.bound, max_deadline)` when called as
///
///   QueryReachable(t.location, /*velocity=*/t.deadline,
///                  /*max_deadline=*/max_worker_velocity, visit)
///
/// — the roles of the two factors swap, and the R-tree's per-subtree
/// maxima prune whole subtrees of slow workers the same way they prune
/// subtrees of tight-deadline tasks.
struct WorkerIndexTraits {
  static const BBox& box(const Worker& w) { return w.location; }
  static double bound(const Worker& w) { return w.velocity; }
};

/// Worker index mirroring TaskIndexCache, for task-centric
/// candidate-worker queries. No epoch loads it; its users count the
/// streaming engine's coverable backlog independently of the pair pool:
/// pbsc_bench's layer probe and the reference test in
/// tests/stream_property_test.cc. Entry ids of view() are positions in
/// the worker vector most recently passed to BeginInstance. See
/// EntityIndexCache for the load and concurrency contract.
using WorkerIndexCache = EntityIndexCache<Worker, WorkerIndexTraits>;

/// The largest `max_deadline` argument that never prunes a worker entry
/// by the cap in QueryReachable(task_box, task_deadline, cap): any value
/// at or above the pool's maximum velocity is exact.
double MaxWorkerVelocity(const std::vector<Worker>& workers);

}  // namespace mqa

#endif  // MQA_INDEX_WORKER_INDEX_CACHE_H_

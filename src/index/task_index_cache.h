#ifndef MQA_INDEX_TASK_INDEX_CACHE_H_
#define MQA_INDEX_TASK_INDEX_CACHE_H_

#include "index/entity_index_cache.h"
#include "model/task.h"

namespace mqa {

/// Trait instantiation behind TaskIndexCache: tasks are bucketed by their
/// location box and carry their remaining deadline at load time as the
/// QueryReachable bound, so worker-centric reachability scans skip
/// entries (and whole R-tree subtrees) a worker cannot reach in time.
struct TaskIndexTraits {
  static const BBox& box(const Task& t) { return t.location; }
  static double bound(const Task& t) { return t.deadline; }
};

/// The simulator's task spatial index, loaded once per epoch. Entry ids
/// of view() are positions in the task vector most recently passed to
/// BeginInstance — exactly the id convention ProblemInstance::task_index
/// expects. See EntityIndexCache for the load and concurrency contract.
using TaskIndexCache = EntityIndexCache<Task, TaskIndexTraits>;

}  // namespace mqa

#endif  // MQA_INDEX_TASK_INDEX_CACHE_H_

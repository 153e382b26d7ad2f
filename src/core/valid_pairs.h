#ifndef MQA_CORE_VALID_PAIRS_H_
#define MQA_CORE_VALID_PAIRS_H_

#include <cstddef>

#include "core/pair_pool.h"
#include "model/problem_instance.h"

namespace mqa {

/// Participating workers at/above which BuildPairPool scans and fills on
/// the instance's thread pool; below it the fan-out costs more than it
/// parallelizes and the build runs on the calling thread.
inline constexpr size_t kMinParallelWorkers = 32;

/// Enumerates valid pairs into a columnar PairPool and attaches
/// cost/quality/existence statistics:
///  * current-current: fixed cost C*dist and fixed quality from the
///    instance's QualityModel, stored inline in the columns;
///  * pairs involving predicted entities (only when include_predicted):
///    cost from the closed-form box-distance statistics (paper Eqs. 2-5)
///    stored inline, computed from per-entity box moments that the build
///    computes once per task and once per worker, not once per pair;
///    quality and existence from PairStatistics Cases 1-3 (paper Section
///    III-B), computed once after the fill from the current-current
///    columns into the pool's per-task/per-worker/global table (see
///    core/pair_pool.h) — not stored per pair.
/// Validity is the reachability test ProblemInstance::CanReach.
///
/// When `include_predicted` is false, only current workers/tasks
/// participate (the paper's WoP straw man and the exact oracle).
///
/// Candidate tasks per worker come from a reachability query over a task
/// index (radius velocity * max-deadline, each entry bounded by its own
/// deadline), then the exact CanReach filter, so any index produces the
/// *identical* pool (same pair order, costs, qualities) as the seed's
/// brute-force double loop; only the work done differs. The index is
/// instance.task_index() when set, else an RTreeIndex loaded here over
/// the participating tasks. The rest of the execution context — thread
/// pool, pool storage and stats sink — also comes from the instance
/// (set_thread_pool, set_pool_storage, set_pool_stats); BuildPairPool
/// writes the finished pool's Stats() to the sink as it returns. The scan
/// splits the workers into contiguous ranges, one per thread of
/// instance.thread_pool(); candidates are kept per worker, so the pool is
/// byte-identical for any thread count (see src/exec/README.md).
PairPool BuildPairPool(const ProblemInstance& instance,
                       bool include_predicted = true);

}  // namespace mqa

#endif  // MQA_CORE_VALID_PAIRS_H_

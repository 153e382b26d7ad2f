#ifndef MQA_INDEX_CANDIDATE_SCAN_H_
#define MQA_INDEX_CANDIDATE_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "index/spatial_index.h"
#include "model/worker.h"

namespace mqa {

/// BuildPairPool's candidate-task scan: one deadline-aware query
/// (QueryReachable with the worker's velocity, bounded by max_deadline)
/// dropping entry ids >= `id_limit` (an external index may cover more
/// tasks than participate), then visiting survivors as
/// fn(task_index, min_dist) in ascending id order. The sort keeps pools
/// (and the Case 1-3 statistics replayed from them) bit-identical for any
/// index and matches the seed's double-loop order. QueryReachable
/// visits exactly the tasks within velocity * min(deadline, max_deadline)
/// of the worker's box; callers still apply the exact
/// ProblemInstance::CanReachAtDistance test with the min-distance handed
/// through, which is stricter only for predicted workers (one instance
/// less deadline). `scratch` avoids per-worker reallocation.
template <typename Fn>
void ForEachReachableCandidate(
    const SpatialIndex& index, const Worker& worker, double max_deadline,
    size_t id_limit, std::vector<std::pair<int32_t, double>>* scratch,
    Fn&& fn) {
  if (worker.velocity <= 0.0) return;  // CanReach rejects every task
  scratch->clear();
  index.QueryReachable(worker.location, worker.velocity, max_deadline,
                       [&](int64_t id, const BBox&, double min_dist) {
                         if (static_cast<size_t>(id) < id_limit) {
                           scratch->emplace_back(static_cast<int32_t>(id),
                                                 min_dist);
                         }
                       });
  std::sort(scratch->begin(), scratch->end());
  for (const auto& [id, min_dist] : *scratch) fn(id, min_dist);
}

}  // namespace mqa

#endif  // MQA_INDEX_CANDIDATE_SCAN_H_

#include "index/brute_force_index.h"

#include <algorithm>

namespace mqa {

void BruteForceIndex::BulkLoad(const std::vector<IndexEntry>& entries) {
  entries_ = entries;
}

void BruteForceIndex::QueryReachable(const BBox& query, double velocity,
                                     double max_deadline,
                                     const RadiusVisitor& visit) const {
  // Negative velocity degrades to 0 (only touching entries qualify), and
  // the 0 * infinite-deadline product is NaN, which fails the skip test
  // below — exactly the conservative no-prune behavior we want.
  velocity = std::max(velocity, 0.0);
  const double radius = std::max(0.0, velocity * max_deadline);
  for (const IndexEntry& e : entries_) {
    const double min_dist = query.MinDistance(e.box);
    if (min_dist > radius) continue;
    if (min_dist > velocity * e.deadline) continue;  // expires too soon
    visit(e.id, e.box, min_dist);
  }
}

}  // namespace mqa

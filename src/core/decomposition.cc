#include "core/decomposition.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mqa {

std::vector<Subproblem> DecomposeTasks(const ProblemInstance& instance,
                                       const PairPool& pool,
                                       const std::vector<int32_t>& task_indices,
                                       int g) {
  MQA_CHECK(g >= 1) << "need at least one subproblem";

  // Tasks that still have valid pairs, in sweeping (x, then y) order.
  std::vector<int32_t> remaining;
  remaining.reserve(task_indices.size());
  for (const int32_t j : task_indices) {
    if (!pool.PairsByTask(j).empty()) {
      remaining.push_back(j);
    }
  }
  const auto center_of = [&](int32_t j) {
    return instance.tasks()[static_cast<size_t>(j)].Center();
  };
  std::sort(remaining.begin(), remaining.end(),
            [&](int32_t a, int32_t b) {
              const Point pa = center_of(a);
              const Point pb = center_of(b);
              if (pa.x != pb.x) return pa.x < pb.x;
              if (pa.y != pb.y) return pa.y < pb.y;
              return a < b;
            });

  const size_t m = remaining.size();
  if (m == 0) return {};
  const size_t group_size =
      (m + static_cast<size_t>(g) - 1) / static_cast<size_t>(g);

  std::vector<Subproblem> subproblems;
  std::vector<char> taken(m, 0);
  size_t num_taken = 0;

  while (num_taken < m) {
    // Anchor: first untaken task in sweeping order.
    size_t anchor_pos = 0;
    while (taken[anchor_pos]) ++anchor_pos;
    const Point anchor = center_of(remaining[anchor_pos]);

    // Collect the anchor plus its (group_size - 1) nearest untaken tasks.
    std::vector<std::pair<double, size_t>> by_dist;
    by_dist.reserve(m - num_taken);
    for (size_t k = 0; k < m; ++k) {
      if (taken[k]) continue;
      by_dist.emplace_back(SquaredDistance(anchor, center_of(remaining[k])),
                           k);
    }
    const size_t want = std::min(group_size, by_dist.size());
    std::partial_sort(by_dist.begin(), by_dist.begin() + want, by_dist.end());

    Subproblem sub;
    for (size_t k = 0; k < want; ++k) {
      const size_t pos = by_dist[k].second;
      taken[pos] = 1;
      ++num_taken;
      const int32_t j = remaining[pos];
      sub.task_indices.push_back(j);
      sub.num_pairs += static_cast<int64_t>(pool.PairsByTask(j).size());
    }
    subproblems.push_back(std::move(sub));
  }
  return subproblems;
}

}  // namespace mqa

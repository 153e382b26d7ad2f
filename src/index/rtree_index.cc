#include "index/rtree_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

namespace mqa {

namespace {

/// Sort-Tile-Recursive grouping: orders item indices by x-center into
/// vertical slices, each slice by y-center, and emits consecutive groups
/// of at most `group` items. Stable sorts keep ties in input order, so
/// the packing is deterministic even when every box is identical. `idx`
/// is the caller's scratch, so its capacity survives the call.
template <typename GetBox, typename Emit>
void TilePack(size_t n, int group, std::vector<int32_t>* idx, GetBox box_of,
              Emit emit) {
  idx->resize(n);
  std::iota(idx->begin(), idx->end(), 0);
  const size_t num_groups = (n + static_cast<size_t>(group) - 1) /
                            static_cast<size_t>(group);
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_groups))));
  const size_t slice_items =
      ((num_groups + slices - 1) / slices) * static_cast<size_t>(group);
  std::stable_sort(idx->begin(), idx->end(), [&](int32_t a, int32_t b) {
    return box_of(a).Center().x < box_of(b).Center().x;
  });
  for (size_t s = 0; s < n; s += slice_items) {
    const size_t e = std::min(n, s + slice_items);
    std::stable_sort(idx->begin() + static_cast<ptrdiff_t>(s),
                     idx->begin() + static_cast<ptrdiff_t>(e),
                     [&](int32_t a, int32_t b) {
                       return box_of(a).Center().y < box_of(b).Center().y;
                     });
    for (size_t g = s; g < e; g += static_cast<size_t>(group)) {
      emit(idx->data() + g,
           static_cast<int32_t>(std::min(e - g, static_cast<size_t>(group))));
    }
  }
}

}  // namespace

void RTreeIndex::BulkLoad(const std::vector<IndexEntry>& entries) {
  entries_.clear();
  nodes_.clear();
  num_leaves_ = 0;
  height_ = 0;
  if (entries.empty()) return;
  // Leaves: each tile's entries are appended to entries_ in tile order.
  const IndexEntry* in = entries.data();
  TilePack(entries.size(), kFanout, &order_,
           [&](int32_t i) -> const BBox& { return in[i].box; },
           [&](const int32_t* group, int32_t count) {
             Node leaf{in[group[0]].box, in[group[0]].deadline,
                       static_cast<int32_t>(entries_.size()), count};
             for (int32_t k = 0; k < count; ++k) {
               const IndexEntry& e = in[group[k]];
               leaf.box = Union(leaf.box, e.box);
               leaf.max_deadline = std::max(leaf.max_deadline, e.deadline);
               entries_.push_back(e);
             }
             nodes_.push_back(leaf);
           });
  num_leaves_ = static_cast<int32_t>(nodes_.size());
  // Each level above: tile the level below, rewrite that level in tile
  // order so that every parent's children are contiguous, and append the
  // parents after it.
  for (size_t begin = 0; nodes_.size() - begin > 1; ++height_) {
    level_.assign(nodes_.begin() + static_cast<ptrdiff_t>(begin),
                  nodes_.end());
    const Node* below = level_.data();
    auto next = static_cast<int32_t>(begin);
    begin = nodes_.size();
    TilePack(level_.size(), kFanout, &order_,
             [&](int32_t i) -> const BBox& { return below[i].box; },
             [&](const int32_t* group, int32_t count) {
               Node parent{below[group[0]].box, below[group[0]].max_deadline,
                           next, count};
               for (int32_t k = 0; k < count; ++k) {
                 const Node& child = below[group[k]];
                 parent.box = Union(parent.box, child.box);
                 parent.max_deadline =
                     std::max(parent.max_deadline, child.max_deadline);
                 nodes_[static_cast<size_t>(next++)] = child;
               }
               nodes_.push_back(parent);
             });
  }
}

void RTreeIndex::Visit(int32_t node, const BBox& query, double velocity,
                       double radius, const RadiusVisitor& visit) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  const double min_dist_node = query.MinDistance(n.box);
  if (min_dist_node > radius) return;
  // Subtree pruning: every entry e below n has min_dist(query, e.box) >=
  // min_dist(query, n.box) and e.deadline <= n.max_deadline, so this
  // proves the whole subtree unreachable. NaN products (velocity 0 with
  // an infinite deadline) fail the strict comparison and descend.
  if (velocity * n.max_deadline < min_dist_node) return;
  const int32_t end = n.first + n.count;
  if (node >= num_leaves_) {
    for (int32_t c = n.first; c < end; ++c) {
      Visit(c, query, velocity, radius, visit);
    }
    return;
  }
  for (int32_t i = n.first; i < end; ++i) {
    const IndexEntry& e = entries_[static_cast<size_t>(i)];
    const double min_dist = query.MinDistance(e.box);
    if (min_dist > radius) continue;
    if (min_dist > velocity * e.deadline) continue;  // expires too soon
    visit(e.id, e.box, min_dist);
  }
}

void RTreeIndex::QueryReachable(const BBox& query, double velocity,
                                double max_deadline,
                                const RadiusVisitor& visit) const {
  velocity = std::max(velocity, 0.0);
  const double radius = std::max(0.0, velocity * max_deadline);
  const auto root = static_cast<int32_t>(nodes_.size()) - 1;
  if (root >= 0) Visit(root, query, velocity, radius, visit);
}

}  // namespace mqa

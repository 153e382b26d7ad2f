#include "index/rtree_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace mqa {

namespace {

using SortKey = RTreeIndex::SortKey;

/// Sorts `keys` by center, ties by position: the order a stable sort by
/// center leaves, from std::sort, which allocates nothing.
void SortByCenter(SortKey* begin, SortKey* end) {
  std::sort(begin, end, [](const SortKey& a, const SortKey& b) {
    return a.center != b.center ? a.center < b.center
                                : a.position < b.position;
  });
}

/// Sort-Tile-Recursive grouping: orders the items by x-center into
/// vertical slices, each slice by y-center, and emits consecutive groups
/// of at most `group` items (as SortKey ranges naming them by `item`).
/// Ties keep their order: by item index in the x sort, and by their
/// place in the x order within a slice. So the packing is deterministic
/// even when every box is identical. `keys` is the caller's scratch, so
/// its capacity survives the call.
template <typename GetBox, typename Emit>
void TilePack(size_t n, int group, std::vector<SortKey>* keys, GetBox box_of,
              Emit emit) {
  keys->resize(n);
  SortKey* k = keys->data();
  const size_t num_groups = (n + static_cast<size_t>(group) - 1) /
                            static_cast<size_t>(group);
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_groups))));
  const size_t slice_items =
      ((num_groups + slices - 1) / slices) * static_cast<size_t>(group);
  for (size_t i = 0; i < n; ++i) {
    const auto item = static_cast<int32_t>(i);
    k[i] = {box_of(item).Center().x, item, item};
  }
  SortByCenter(k, k + n);
  for (size_t s = 0; s < n; s += slice_items) {
    const size_t e = std::min(n, s + slice_items);
    for (size_t i = s; i < e; ++i) {
      k[i].center = box_of(k[i].item).Center().y;
      k[i].position = static_cast<int32_t>(i);
    }
    SortByCenter(k + s, k + e);
    for (size_t g = s; g < e; g += static_cast<size_t>(group)) {
      emit(k + g,
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
  TilePack(entries.size(), kFanout, &keys_,
           [&](int32_t i) -> const BBox& { return in[i].box; },
           [&](const SortKey* group, int32_t count) {
             Node leaf{in[group[0].item].box, in[group[0].item].deadline,
                       static_cast<int32_t>(entries_.size()), count};
             for (int32_t k = 0; k < count; ++k) {
               const IndexEntry& e = in[group[k].item];
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
    TilePack(level_.size(), kFanout, &keys_,
             [&](int32_t i) -> const BBox& { return below[i].box; },
             [&](const SortKey* group, int32_t count) {
               Node parent{below[group[0].item].box,
                           below[group[0].item].max_deadline, next, count};
               for (int32_t k = 0; k < count; ++k) {
                 const Node& child = below[group[k].item];
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

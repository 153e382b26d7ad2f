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
/// the packing is deterministic even when every box is identical.
template <typename GetBox, typename Emit>
void TilePack(size_t n, int group, GetBox box_of, Emit emit) {
  std::vector<int32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  const size_t num_groups = (n + static_cast<size_t>(group) - 1) /
                            static_cast<size_t>(group);
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_groups))));
  const size_t slice_items =
      ((num_groups + slices - 1) / slices) * static_cast<size_t>(group);

  std::stable_sort(idx.begin(), idx.end(), [&](int32_t a, int32_t b) {
    return box_of(a).Center().x < box_of(b).Center().x;
  });
  for (size_t s = 0; s < n; s += slice_items) {
    const size_t e = std::min(n, s + slice_items);
    std::stable_sort(idx.begin() + static_cast<ptrdiff_t>(s),
                     idx.begin() + static_cast<ptrdiff_t>(e),
                     [&](int32_t a, int32_t b) {
                       return box_of(a).Center().y < box_of(b).Center().y;
                     });
    for (size_t g = s; g < e; g += static_cast<size_t>(group)) {
      emit(idx.data() + g,
           static_cast<int>(std::min(e - g, static_cast<size_t>(group))));
    }
  }
}

}  // namespace

// --- node memory -----------------------------------------------------------

RTreeIndex::LeafEntry* RTreeIndex::Entries(Node* n) {
  return reinterpret_cast<LeafEntry*>(reinterpret_cast<unsigned char*>(n) +
                                      kNodeHeaderBytes);
}

const RTreeIndex::LeafEntry* RTreeIndex::Entries(const Node* n) {
  return reinterpret_cast<const LeafEntry*>(
      reinterpret_cast<const unsigned char*>(n) + kNodeHeaderBytes);
}

RTreeIndex::Node** RTreeIndex::Children(Node* n) {
  return reinterpret_cast<Node**>(reinterpret_cast<unsigned char*>(n) +
                                  kNodeHeaderBytes);
}

RTreeIndex::Node* const* RTreeIndex::Children(const Node* n) {
  return reinterpret_cast<Node* const*>(
      reinterpret_cast<const unsigned char*>(n) + kNodeHeaderBytes);
}

size_t RTreeIndex::NodeBytes() const {
  // Leaf slots are the wider of the two payloads, so one block size fits
  // both node kinds.
  static_assert(sizeof(LeafEntry) >= sizeof(Node*), "slot sizing");
  return kNodeHeaderBytes +
         static_cast<size_t>(max_entries_) * sizeof(LeafEntry);
}

RTreeIndex::RTreeIndex(int max_entries)
    : max_entries_(std::clamp(max_entries, 4, 128)) {}

RTreeIndex::~RTreeIndex() = default;

RTreeIndex::Node* RTreeIndex::AllocNode(int32_t level) {
  Node* n = new (arena_.Allocate(NodeBytes(), alignof(LeafEntry))) Node();
  n->box = BBox();
  n->max_deadline = 0.0;
  n->count = 0;
  n->level = level;
  return n;
}

int RTreeIndex::height() const { return root_ == nullptr ? 0 : root_->level; }

void RTreeIndex::RecomputeNode(Node* n) {
  if (n->level == 0) {
    const LeafEntry* es = Entries(n);
    BBox box = es[0].box;
    double dl = es[0].deadline;
    for (int32_t i = 1; i < n->count; ++i) {
      box = Union(box, es[i].box);
      dl = std::max(dl, es[i].deadline);
    }
    n->box = box;
    n->max_deadline = dl;
  } else {
    Node* const* cs = Children(n);
    BBox box = cs[0]->box;
    double dl = cs[0]->max_deadline;
    for (int32_t i = 1; i < n->count; ++i) {
      box = Union(box, cs[i]->box);
      dl = std::max(dl, cs[i]->max_deadline);
    }
    n->box = box;
    n->max_deadline = dl;
  }
}

// --- bulk load ---------------------------------------------------------------

std::vector<RTreeIndex::Node*> RTreeIndex::PackLevel(
    const std::vector<Node*>& children) {
  std::vector<Node*> parents;
  parents.reserve(children.size() / static_cast<size_t>(max_entries_) + 1);
  TilePack(
      children.size(), max_entries_,
      [&](int32_t i) -> const BBox& { return children[static_cast<size_t>(i)]->box; },
      [&](const int32_t* group, int group_count) {
        Node* parent = AllocNode(children[static_cast<size_t>(group[0])]->level + 1);
        Node** cs = Children(parent);
        for (int i = 0; i < group_count; ++i) {
          cs[i] = children[static_cast<size_t>(group[i])];
        }
        parent->count = group_count;
        RecomputeNode(parent);
        parents.push_back(parent);
      });
  return parents;
}

void RTreeIndex::BulkLoad(const std::vector<IndexEntry>& entries) {
  arena_.Reset();
  root_ = nullptr;
  size_ = entries.size();
  if (entries.empty()) return;

  std::vector<Node*> level;
  level.reserve(entries.size() / static_cast<size_t>(max_entries_) + 1);
  TilePack(
      entries.size(), max_entries_,
      [&](int32_t i) -> const BBox& { return entries[static_cast<size_t>(i)].box; },
      [&](const int32_t* group, int group_count) {
        Node* leaf = AllocNode(0);
        LeafEntry* es = Entries(leaf);
        for (int i = 0; i < group_count; ++i) {
          const IndexEntry& e = entries[static_cast<size_t>(group[i])];
          es[i] = {e.id, e.box, e.deadline};
        }
        leaf->count = group_count;
        RecomputeNode(leaf);
        level.push_back(leaf);
      });
  while (level.size() > 1) level = PackLevel(level);
  root_ = level[0];
}

// --- queries -----------------------------------------------------------------

void RTreeIndex::ReachableRec(const Node* n, const BBox& query,
                              double velocity, double radius,
                              const RadiusVisitor& visit) const {
  const double min_dist_node = query.MinDistance(n->box);
  if (min_dist_node > radius) return;
  // Subtree pruning: every entry below n satisfies
  //   min_dist(query, e.box) >= min_dist(query, n->box) and
  //   e.deadline <= n->max_deadline,
  // so `velocity * n->max_deadline < min_dist(query, n->box)` proves the
  // whole subtree unreachable, at every internal level. NaN products
  // (velocity 0 with an infinite deadline) fail the strict comparison and
  // conservatively descend.
  if (velocity * n->max_deadline < min_dist_node) return;
  if (n->level == 0) {
    const LeafEntry* es = Entries(n);
    for (int32_t i = 0; i < n->count; ++i) {
      const double min_dist = query.MinDistance(es[i].box);
      if (min_dist > radius) continue;
      if (min_dist > velocity * es[i].deadline) continue;  // expires too soon
      visit(es[i].id, es[i].box, min_dist);
    }
    return;
  }
  Node* const* cs = Children(n);
  for (int32_t i = 0; i < n->count; ++i) {
    ReachableRec(cs[i], query, velocity, radius, visit);
  }
}

void RTreeIndex::QueryReachable(const BBox& query, double velocity,
                                double max_deadline,
                                const RadiusVisitor& visit) const {
  velocity = std::max(velocity, 0.0);
  const double radius = std::max(0.0, velocity * max_deadline);
  if (root_ != nullptr) ReachableRec(root_, query, velocity, radius, visit);
}

}  // namespace mqa

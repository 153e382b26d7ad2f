#ifndef MQA_INDEX_RTREE_INDEX_H_
#define MQA_INDEX_RTREE_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace mqa {

/// Static R-tree SpatialIndex packed Sort-Tile-Recursively: the index
/// every epoch loads over its tasks (and the streaming engine over its
/// workers). Node boxes adapt to the data, so per-query work tracks the
/// entries *near the query* on uniform, Zipf and clustered inputs alike.
///
/// Layout: `entries_` holds the entries in leaf order; `nodes_` holds the
/// leaves, then each level above them, the root last. A node names a
/// contiguous range of the level below (of `entries_` for a leaf) and
/// carries its subtree's union box and max deadline, so QueryReachable
/// discards a whole subtree when
/// `velocity * subtree_max_deadline < MinDistance(query, subtree_box)`.
///
/// BulkLoad tiles at most kFanout items per node (sort by x-center into
/// vertical slices, each slice by y-center) and repeats on the node level
/// up to one root: O(n log n), balanced on clustered inputs, and
/// deterministic (each sort key carries its position, which breaks
/// center ties as a stable sort would). The arrays keep their capacity,
/// so reloading a tree no larger than an earlier one allocates nothing.
///
/// Queries visit exactly BruteForceIndex's entry set (property-tested),
/// in tree order; they read no mutable state, so any number of threads
/// may query while no BulkLoad runs (src/index/README.md).
class RTreeIndex final : public SpatialIndex {
 public:
  void BulkLoad(const std::vector<IndexEntry>& entries) override;
  void QueryReachable(const BBox& query, double velocity, double max_deadline,
                      const RadiusVisitor& visit) const override;

  size_t size() const override { return entries_.size(); }
  const char* name() const override { return "RTREE"; }

  /// Root height: 0 for an empty-or-leaf-only tree.
  int height() const { return height_; }

  /// BulkLoad's sort key: an item's box center on the axis being sorted,
  /// its position in the order before that sort (the tie-break), and the
  /// item (an entry or a node of the level below).
  struct SortKey {
    double center;
    int32_t position;
    int32_t item;
  };

 private:
  /// Children per node (entries per leaf).
  static constexpr int kFanout = 16;

  struct Node {
    BBox box;             // union of the subtree's entry boxes
    double max_deadline;  // max over the subtree's deadlines
    int32_t first;        // first child node, or first entry of a leaf
    int32_t count;
  };

  void Visit(int32_t node, const BBox& query, double velocity, double radius,
             const RadiusVisitor& visit) const;

  std::vector<IndexEntry> entries_;
  std::vector<Node> nodes_;
  int32_t num_leaves_ = 0;  // nodes_[0, num_leaves_) are the leaves
  int height_ = 0;
  // BulkLoad scratch: a level's sort keys, and a copy of that level.
  std::vector<SortKey> keys_;
  std::vector<Node> level_;
};

}  // namespace mqa

#endif  // MQA_INDEX_RTREE_INDEX_H_

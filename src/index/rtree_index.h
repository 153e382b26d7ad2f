#ifndef MQA_INDEX_RTREE_INDEX_H_
#define MQA_INDEX_RTREE_INDEX_H_

#include <cstdint>
#include <vector>

#include "exec/pair_arena.h"
#include "index/spatial_index.h"

namespace mqa {

/// Packed R-tree SpatialIndex: the index every epoch loads over its tasks
/// (and, for the streaming engine, its workers), and the one
/// BuildPairPool loads when the instance carries none. Node boxes adapt
/// to the data — leaves in a dense cluster cover tiny areas, sparse space
/// is pruned near the root — so per-query work tracks the entries *near
/// the query*, on the uniform, Zipf and Gaussian-cluster distributions
/// alike.
///
/// Structure: every node holds at most `max_entries` children; leaf slots
/// are (id, box, deadline) entries, internal slots are child subtrees.
/// Each node carries the union bounding box and the max deadline of its
/// subtree, which lets QueryReachable discard a whole subtree when
/// `velocity * subtree_max_deadline < MinDistance(query, subtree_box)`.
/// BulkLoad computes both exactly.
///
/// BulkLoad packs leaves with Sort-Tile-Recursive (sort by x-center into
/// vertical slices, each slice by y-center) and recurses on the node
/// level — O(n log n), well-balanced even on heavily clustered inputs,
/// and deterministic (ties broken by entry order).
///
/// Nodes live in PairArena slabs (one fixed-size block per node);
/// BulkLoad resets the arena and repacks into the retained slabs, so
/// *node storage* allocates nothing once the arena is warm under the
/// simulator's load-a-same-sized-tree-every-epoch pattern. The STR index
/// permutation is O(n) heap scratch per load.
///
/// Queries visit exactly the entry set the SpatialIndex contract
/// specifies (identical to BruteForceIndex, property-tested); visit order
/// is tree order, so callers needing a deterministic order sort ids
/// (which `candidate_scan.h` does).
///
/// Concurrency: queries are const and touch no mutable state — safe from
/// any number of threads concurrently, provided no BulkLoad is in flight
/// (see src/index/README.md).
class RTreeIndex final : public SpatialIndex {
 public:
  /// `max_entries` is the node fan-out M (clamped to [4, 128]).
  explicit RTreeIndex(int max_entries = 16);
  ~RTreeIndex() override;

  void BulkLoad(const std::vector<IndexEntry>& entries) override;
  void QueryReachable(const BBox& query, double velocity, double max_deadline,
                      const RadiusVisitor& visit) const override;

  size_t size() const override { return size_; }
  const char* name() const override { return "RTREE"; }

  int max_entries() const { return max_entries_; }
  /// Root height: 0 for an empty-or-leaf-only tree.
  int height() const;

 private:
  /// One leaf slot. Mirrors IndexEntry; kept separate so the node layout
  /// stays trivially copyable for slab storage.
  struct LeafEntry {
    int64_t id;
    BBox box;
    double deadline;
  };

  /// Fixed-size node block allocated from the arena: this header is
  /// followed by `max_entries_` slots (LeafEntry for level 0, Node*
  /// above).
  struct Node {
    BBox box;             // union of the subtree's entry boxes
    double max_deadline;  // max over the subtree's deadlines
    int32_t count;
    int32_t level;  // 0 = leaf
  };

  /// Slot storage begins at the first 8-byte boundary past the header.
  static constexpr size_t kNodeHeaderBytes = (sizeof(Node) + 7) & ~size_t{7};

  static LeafEntry* Entries(Node* n);
  static const LeafEntry* Entries(const Node* n);
  static Node** Children(Node* n);
  static Node* const* Children(const Node* n);

  Node* AllocNode(int32_t level);
  size_t NodeBytes() const;

  /// Computes `n`'s box and deadline max from its slots.
  void RecomputeNode(Node* n);

  void ReachableRec(const Node* n, const BBox& query, double velocity,
                    double radius, const RadiusVisitor& visit) const;

  /// Sort-Tile-Recursive packing of one tree level into the next.
  std::vector<Node*> PackLevel(const std::vector<Node*>& children);

  int max_entries_;
  size_t size_ = 0;
  Node* root_ = nullptr;  // null when empty
  PairArena arena_;
};

}  // namespace mqa

#endif  // MQA_INDEX_RTREE_INDEX_H_

#ifndef MQA_INDEX_SPATIAL_INDEX_H_
#define MQA_INDEX_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "geo/bbox.h"

namespace mqa {

/// One indexed entity: an external id (the entity's position in its
/// epoch vector) and its location box. Current entities are degenerate
/// (point) boxes, predicted entities are uniform-kernel boxes.
struct IndexEntry {
  int64_t id = -1;
  BBox box;

  /// The entity's remaining deadline as of the load, used by
  /// QueryReachable to skip entries (and whole R-tree subtrees) a worker
  /// cannot reach in time. Infinity — the default — disables the
  /// deadline test for the entry.
  double deadline = std::numeric_limits<double>::infinity();
};

/// Non-owning callable reference used by QueryReachable; avoids a
/// std::function allocation in the pair-generation inner loop.
///
/// The query passes the exact min-distance it already computed for its
/// filter, so callers (e.g. BuildPairPool's reachability test) need not
/// recompute it.
class RadiusVisitor {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, RadiusVisitor>>>
  RadiusVisitor(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, int64_t id, const BBox& box, double min_dist) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(id, box, min_dist);
        }) {}

  void operator()(int64_t id, const BBox& box, double min_dist) const {
    call_(obj_, id, box, min_dist);
  }

 private:
  void* obj_;
  void (*call_)(void*, int64_t, const BBox&, double);
};

/// A query-only spatial index over entity location boxes in the unit
/// data space, loaded once per epoch with BulkLoad and never edited.
/// RTreeIndex is the one production implementation; BruteForceIndex is
/// the semantics reference that tests hand to
/// ProblemInstance::set_task_index through this interface. Both answer
/// QueryReachable with *exact* min-distance and deadline semantics: the
/// visited set is identical (property-tested), only the work differs.
///
/// Visit order is implementation-specific; callers that need a
/// deterministic order must sort the visited ids.
///
/// Thread-safety: the const methods read shared state without mutation,
/// so any number of threads may query one index concurrently — the
/// parallel pair-generation path relies on this. BulkLoad requires
/// exclusive access: no queries concurrent with a load. See the
/// "Concurrency" section of src/index/README.md.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Replaces the contents with `entries`.
  virtual void BulkLoad(const std::vector<IndexEntry>& entries) = 0;

  /// Reachability query: visits exactly the entries with
  ///   min_dist <= velocity * min(entry.deadline, max_deadline),
  /// where min_dist is the Euclidean min-distance from `query` to the
  /// entry's box, passing min_dist along. Negative velocities act as 0,
  /// so only touching entries (min_dist 0) qualify; the 0 * infinity
  /// product of a zero velocity and an infinite deadline never excludes
  /// an entry within range. RTreeIndex skips whole subtrees whose max
  /// deadline rules every entry out; the visited set is the same.
  /// Callers still apply their exact reachability filter
  /// (ProblemInstance::CanReachAtDistance), which this set never loses a
  /// candidate of.
  virtual void QueryReachable(const BBox& query, double velocity,
                              double max_deadline,
                              const RadiusVisitor& visit) const = 0;

  /// Number of entries.
  virtual size_t size() const = 0;

  /// Display name ("RTREE", "BRUTE").
  virtual const char* name() const = 0;
};

}  // namespace mqa

#endif  // MQA_INDEX_SPATIAL_INDEX_H_

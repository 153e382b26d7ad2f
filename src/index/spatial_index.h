#ifndef MQA_INDEX_SPATIAL_INDEX_H_
#define MQA_INDEX_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "geo/bbox.h"

namespace mqa {

/// Which spatial-index backend candidate generation uses. Exposed through
/// SimulatorConfig::index_backend and PairPoolOptions::backend; see
/// src/index/README.md for when each backend wins.
enum class IndexBackend {
  /// The simulator's index caches (EntityIndexCache) load the grid.
  /// Standalone BuildPairPool calls resolve it by size instead: brute
  /// force below kAutoBruteForceMaxPairs, the grid above (ResolveBackend).
  kAuto,
  /// Linear scan; preserves the seed's O(|W|*|T|) enumeration exactly.
  kBruteForce,
  /// Uniform grid with cell-bucketed entities; near-linear candidate
  /// generation when reach radii are small relative to the data space.
  kGrid,
  /// R-tree packed from the data (STR); the backend for skewed
  /// (Zipf / Gaussian-cluster) distributions where the grid's fixed
  /// resolution goes unbalanced. Never picked by kAuto — opt in.
  kRTree,
};

/// Short display name ("AUTO", "BRUTE", "GRID", "RTREE").
const char* IndexBackendToString(IndexBackend backend);

/// One indexed entity: an external id (the entity's position in its
/// epoch vector) and its location box. Current entities are degenerate
/// (point) boxes, predicted entities are uniform-kernel boxes.
struct IndexEntry {
  int64_t id = -1;
  BBox box;

  /// The entity's remaining deadline as of the load, used by
  /// QueryReachable to skip entries (and whole grid cells or R-tree
  /// subtrees) a worker cannot reach in time. Infinity — the default —
  /// disables the deadline test for the entry.
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
/// Backends answer QueryReachable with *exact* min-distance and deadline
/// semantics: the set of visited entries is identical across backends
/// (property-tested), only the work done differs.
///
/// Visit order is backend-specific; callers that need determinism across
/// backends must sort the visited ids.
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
  /// an entry within range. GridIndex and RTreeIndex skip whole cells or
  /// subtrees whose max deadline rules every entry out; the visited set
  /// is the same. Callers still apply their exact reachability filter
  /// (ProblemInstance::CanReachAtDistance), which this set never loses a
  /// candidate of.
  virtual void QueryReachable(const BBox& query, double velocity,
                              double max_deadline,
                              const RadiusVisitor& visit) const = 0;

  /// Number of entries.
  virtual size_t size() const = 0;

  /// Display name of the backend.
  virtual const char* name() const = 0;
};

/// Workload size (|W| * |T|) below which ResolveBackend maps kAuto to
/// brute force: at tiny scale the grid's build cost exceeds the scan it
/// saves.
inline constexpr size_t kAutoBruteForceMaxPairs = 64 * 64;

/// Resolves kAuto to a concrete backend for a workload of
/// `num_queries * num_entries` candidate pairs. Used by standalone
/// BuildPairPool calls; EntityIndexCache maps kAuto to the grid itself.
IndexBackend ResolveBackend(IndexBackend backend, size_t num_queries,
                            size_t num_entries);

/// Creates an index of the given backend. `backend` must be concrete:
/// resolve kAuto first (ResolveBackend, or the grid as EntityIndexCache
/// does).
std::unique_ptr<SpatialIndex> CreateSpatialIndex(IndexBackend backend);

}  // namespace mqa

#endif  // MQA_INDEX_SPATIAL_INDEX_H_

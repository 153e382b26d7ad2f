#ifndef MQA_INDEX_GRID_INDEX_H_
#define MQA_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace mqa {

/// Uniform-grid SpatialIndex over the unit data space: [0,1]^2 is cut
/// into side x side square cells and every entry is bucketed into each
/// cell its box overlaps. A query visits only the cells within the query
/// box expanded by its radius, so with n roughly uniform entries and
/// side ~ sqrt(n) the per-query cost is proportional to the number of
/// entries near the query instead of n.
///
/// Entries spanning several cells are reported exactly once per query via
/// the home-cell rule (an entry is emitted only from the first cell, in
/// scan order, of the intersection of its cell range and the query's), so
/// queries need no per-call dedup set.
///
/// Each cell additionally tracks the max deadline and the union bounding
/// box of its entries, so QueryReachable can discard a whole cell when
/// `velocity * cell_max_deadline < MinDistance(query, cell_bounds)` —
/// every entry bucketed there would expire before the worker arrives.
/// BulkLoad computes both exactly.
///
/// Coordinates outside [0,1] are legal: they bucket into the boundary
/// cells, and exact distance/intersection tests keep query results
/// correct regardless of clamping.
///
/// Concurrency: queries are const and touch no mutable state — safe from
/// any number of threads concurrently, provided no BulkLoad is in flight
/// (see src/index/README.md).
class GridIndex final : public SpatialIndex {
 public:
  /// `cells_per_side` fixes the resolution; 0 (auto) picks ~sqrt(n) at
  /// every BulkLoad.
  explicit GridIndex(int cells_per_side = 0);

  void BulkLoad(const std::vector<IndexEntry>& entries) override;
  void QueryReachable(const BBox& query, double velocity, double max_deadline,
                      const RadiusVisitor& visit) const override;

  size_t size() const override { return size_; }
  const char* name() const override { return "GRID"; }

  int cells_per_side() const { return side_; }

 private:
  // A bucketed entry with its precomputed cell range [cx0,cx1]x[cy0,cy1];
  // the range makes the home-cell dedup rule O(1) per encounter.
  struct Entry {
    int64_t id;
    BBox box;
    double deadline;
    int32_t cx0, cx1, cy0, cy1;
  };

  // One grid cell: its entries plus the pruning maxima QueryReachable
  // uses, exact over the cell's entries.
  struct Cell {
    std::vector<Entry> entries;
    double max_deadline = 0.0;
    BBox bounds;  // meaningful only when !entries.empty()
  };

  int CellCoord(double v) const;
  Entry MakeEntry(const IndexEntry& entry) const;

  // Buckets `e` into every cell of its range, growing the cell maxima.
  void AddToCells(const Entry& e);

  bool auto_resolution_;
  int side_;
  double inv_cell_ = 1.0;
  size_t size_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace mqa

#endif  // MQA_INDEX_GRID_INDEX_H_

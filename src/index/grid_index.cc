#include "index/grid_index.h"

#include <algorithm>
#include <cmath>

namespace mqa {

namespace {

constexpr int kMaxSide = 1024;

int AutoSide(size_t n) {
  const int side =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  return std::clamp(side, 1, kMaxSide);
}

}  // namespace

GridIndex::GridIndex(int cells_per_side)
    : auto_resolution_(cells_per_side <= 0),
      side_(auto_resolution_ ? 1 : std::min(cells_per_side, kMaxSide)) {
  inv_cell_ = static_cast<double>(side_);
  cells_.resize(static_cast<size_t>(side_) * static_cast<size_t>(side_));
}

int GridIndex::CellCoord(double v) const {
  // Boundary rule: a coordinate exactly on an interior cell edge buckets
  // into the higher cell; 1.0 (and anything beyond) clamps into the last
  // cell, negatives into cell 0. Queries use the same mapping, so an
  // entry and any query box reaching it always meet in at least one cell.
  // Clamp in the double domain: out-of-range coordinates are legal here,
  // and casting a double beyond int range is undefined behavior.
  const double clamped = std::clamp(v, 0.0, 1.0);
  return std::min(static_cast<int>(clamped * inv_cell_), side_ - 1);
}

GridIndex::Entry GridIndex::MakeEntry(const IndexEntry& entry) const {
  Entry e;
  e.id = entry.id;
  e.box = entry.box;
  e.deadline = entry.deadline;
  e.cx0 = CellCoord(entry.box.lo().x);
  e.cx1 = CellCoord(entry.box.hi().x);
  e.cy0 = CellCoord(entry.box.lo().y);
  e.cy1 = CellCoord(entry.box.hi().y);
  return e;
}

void GridIndex::AddToCells(const Entry& e) {
  for (int32_t cy = e.cy0; cy <= e.cy1; ++cy) {
    for (int32_t cx = e.cx0; cx <= e.cx1; ++cx) {
      Cell& cell = cells_[static_cast<size_t>(cy) *
                              static_cast<size_t>(side_) +
                          static_cast<size_t>(cx)];
      cell.bounds = cell.entries.empty() ? e.box : Union(cell.bounds, e.box);
      cell.max_deadline = cell.entries.empty()
                              ? e.deadline
                              : std::max(cell.max_deadline, e.deadline);
      cell.entries.push_back(e);
    }
  }
}

void GridIndex::BulkLoad(const std::vector<IndexEntry>& entries) {
  if (auto_resolution_) {
    side_ = AutoSide(entries.size());
    inv_cell_ = static_cast<double>(side_);
  }
  cells_.assign(static_cast<size_t>(side_) * static_cast<size_t>(side_), {});
  for (const IndexEntry& e : entries) AddToCells(MakeEntry(e));
  size_ = entries.size();
}

void GridIndex::QueryReachable(const BBox& query, double velocity,
                               double max_deadline,
                               const RadiusVisitor& visit) const {
  velocity = std::max(velocity, 0.0);
  const double radius = std::max(0.0, velocity * max_deadline);
  const BBox range = query.Expanded(radius);
  const int32_t qx0 = CellCoord(range.lo().x);
  const int32_t qx1 = CellCoord(range.hi().x);
  const int32_t qy0 = CellCoord(range.lo().y);
  const int32_t qy1 = CellCoord(range.hi().y);
  for (int32_t cy = qy0; cy <= qy1; ++cy) {
    for (int32_t cx = qx0; cx <= qx1; ++cx) {
      const Cell& cell =
          cells_[static_cast<size_t>(cy) * static_cast<size_t>(side_) +
                 static_cast<size_t>(cx)];
      // Cell pruning: every entry bucketed in a cell satisfies
      //   min_dist(query, e.box) >= min_dist(query, cell.bounds) and
      //   e.deadline <= cell.max_deadline,
      // so `velocity * cell.max_deadline < min_dist(query, cell.bounds)`
      // proves every one of them unreachable — including entries *homed*
      // there whose boxes extend into other cells, which is what makes
      // skipping the bucket sound under the home-cell rule below. NaN
      // products (velocity 0 with an infinite deadline) fail both strict
      // comparisons and conservatively keep the cell/entry.
      if (cell.entries.empty() ||
          velocity * cell.max_deadline < query.MinDistance(cell.bounds)) {
        continue;
      }
      for (const Entry& e : cell.entries) {
        // Home-cell rule: a multi-cell entry is handled only in the first
        // cell, in scan order, of the intersection of its cell range and
        // the query's, so it is visited exactly once.
        if (cx != std::max(e.cx0, qx0) || cy != std::max(e.cy0, qy0)) {
          continue;
        }
        const double min_dist = query.MinDistance(e.box);
        if (min_dist > radius) continue;
        if (min_dist > velocity * e.deadline) continue;  // expires too soon
        visit(e.id, e.box, min_dist);
      }
    }
  }
}

}  // namespace mqa

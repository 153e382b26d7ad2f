#ifndef MQA_PREDICTION_GRID_H_
#define MQA_PREDICTION_GRID_H_

#include <cstdint>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"

namespace mqa {

/// A gamma x gamma grid over the unit data space U = [0,1]^2 (paper
/// Section III-A). Cells are indexed row-major: cell(cx, cy) = cy*gamma+cx.
/// Points on the upper/right boundary fall into the last cell.
class Grid {
 public:
  /// The most cells per side a grid takes: 10^6 cells, far past the
  /// paper's 400, and small enough that num_cells() cannot overflow.
  static constexpr int kMaxGamma = 1000;

  /// Creates a grid with `gamma` cells per side (1 <= gamma <= kMaxGamma).
  /// The paper's experiments use 400 cells, i.e. gamma = 20.
  explicit Grid(int gamma);

  int gamma() const { return gamma_; }
  int num_cells() const { return gamma_ * gamma_; }

  /// Side length 1/gamma of each square cell.
  double cell_side() const { return side_; }

  /// Index of the cell containing `p` (clamped to the unit square).
  int CellOf(const Point& p) const;

  /// Bounding box of cell `index`.
  BBox CellBox(int index) const;

  /// Counts how many of `points` fall into each cell.
  std::vector<int64_t> Histogram(const std::vector<Point>& points) const;

 private:
  int gamma_;
  double side_;
};

}  // namespace mqa

#endif  // MQA_PREDICTION_GRID_H_

#include "prediction/grid.h"

#include <algorithm>

#include "common/logging.h"

namespace mqa {

Grid::Grid(int gamma) : gamma_(gamma), side_(1.0 / gamma) {
  MQA_CHECK(gamma >= 1) << "grid needs at least one cell per side";
  MQA_CHECK(gamma <= kMaxGamma)
      << "grid takes at most " << kMaxGamma << " cells per side, got "
      << gamma;
}

int Grid::CellOf(const Point& p) const {
  // Clamp the coordinate before scaling: a far-out one (a replayed trace
  // only checks finiteness) would overflow the int cast.
  const auto clamp_axis = [this](double v) {
    const int c = static_cast<int>(std::clamp(v, 0.0, 1.0) * gamma_);
    return std::min(c, gamma_ - 1);
  };
  return clamp_axis(p.y) * gamma_ + clamp_axis(p.x);
}

BBox Grid::CellBox(int index) const {
  MQA_CHECK(index >= 0 && index < num_cells()) << "cell index out of range";
  const int cx = index % gamma_;
  const int cy = index / gamma_;
  const Point lo{cx * side_, cy * side_};
  const Point hi{(cx + 1) * side_, (cy + 1) * side_};
  return BBox(lo, hi);
}

std::vector<int64_t> Grid::Histogram(const std::vector<Point>& points) const {
  std::vector<int64_t> counts(static_cast<size_t>(num_cells()), 0);
  for (const Point& p : points) {
    ++counts[static_cast<size_t>(CellOf(p))];
  }
  return counts;
}

}  // namespace mqa

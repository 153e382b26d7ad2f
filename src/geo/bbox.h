#ifndef MQA_GEO_BBOX_H_
#define MQA_GEO_BBOX_H_

#include <algorithm>
#include <cmath>
#include <ostream>

#include "geo/point.h"

namespace mqa {

/// Axis-aligned bounding box. Predicted workers/tasks live in a uniform
/// kernel box [s_r - h_r, s_r + h_r] per dimension (paper Section III-A);
/// BBox is that support region. A degenerate box (lo == hi) represents a
/// current (deterministic) location.
class BBox {
 public:
  BBox() = default;

  /// Box spanning [lo.x, hi.x] x [lo.y, hi.y]. Requires lo <= hi per axis.
  BBox(Point lo, Point hi);

  /// Degenerate box at a single point.
  static BBox FromPoint(const Point& p) { return BBox(p, p); }

  /// Box centered at `center` with half-widths hx, hy, clipped to
  /// [0,1]^2 (kernel boxes never extend outside the data space).
  static BBox KernelBox(const Point& center, double hx, double hy);

  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  Point Center() const { return {0.5 * (lo_.x + hi_.x), 0.5 * (lo_.y + hi_.y)}; }

  double WidthX() const { return hi_.x - lo_.x; }
  double WidthY() const { return hi_.y - lo_.y; }

  bool IsPoint() const { return lo_ == hi_; }

  bool Contains(const Point& p) const {
    return p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y;
  }

  /// True when the boxes share at least one point (boundary-inclusive).
  bool Intersects(const BBox& other) const {
    return lo_.x <= other.hi_.x && other.lo_.x <= hi_.x &&
           lo_.y <= other.hi_.y && other.lo_.y <= hi_.y;
  }

  /// Box grown by `r >= 0` on every side (not clipped to the data space;
  /// spatial-index cell-range computations clamp separately).
  BBox Expanded(double r) const;

  /// Minimum Euclidean distance between any point of this box and any
  /// point of `other` (0 when they intersect).
  double MinDistance(const BBox& other) const {
    const double dx = IntervalGap(lo_.x, hi_.x, other.lo_.x, other.hi_.x);
    const double dy = IntervalGap(lo_.y, hi_.y, other.lo_.y, other.hi_.y);
    return std::sqrt(dx * dx + dy * dy);
  }

  /// Maximum Euclidean distance between any point of this box and any
  /// point of `other`.
  double MaxDistance(const BBox& other) const {
    const double dx = IntervalSpan(lo_.x, hi_.x, other.lo_.x, other.hi_.x);
    const double dy = IntervalSpan(lo_.y, hi_.y, other.lo_.y, other.hi_.y);
    return std::sqrt(dx * dx + dy * dy);
  }

  friend bool operator==(const BBox& a, const BBox& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  // Distance between intervals [a1,a2] and [b1,b2] along one axis; 0 if
  // they overlap.
  static double IntervalGap(double a1, double a2, double b1, double b2) {
    if (a2 < b1) return b1 - a2;
    if (b2 < a1) return a1 - b2;
    return 0.0;
  }

  // Largest coordinate difference achievable between the two intervals.
  static double IntervalSpan(double a1, double a2, double b1, double b2) {
    return std::max(std::abs(a2 - b1), std::abs(b2 - a1));
  }

  Point lo_;
  Point hi_;
};

/// Smallest box covering both `a` and `b` (the R-tree's node boxes).
BBox Union(const BBox& a, const BBox& b);

std::ostream& operator<<(std::ostream& os, const BBox& box);

}  // namespace mqa

#endif  // MQA_GEO_BBOX_H_

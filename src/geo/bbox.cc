#include "geo/bbox.h"

#include "common/logging.h"

namespace mqa {

BBox::BBox(Point lo, Point hi) : lo_(lo), hi_(hi) {
  MQA_CHECK(lo.x <= hi.x && lo.y <= hi.y)
      << "invalid BBox [" << lo << ", " << hi << "]";
}

BBox BBox::KernelBox(const Point& center, double hx, double hy) {
  MQA_CHECK(hx >= 0.0 && hy >= 0.0) << "negative bandwidth";
  Point lo{std::max(0.0, center.x - hx), std::max(0.0, center.y - hy)};
  Point hi{std::min(1.0, center.x + hx), std::min(1.0, center.y + hy)};
  // A center outside [0,1]^2 would produce an inverted interval; clamp.
  if (lo.x > hi.x) lo.x = hi.x = std::clamp(center.x, 0.0, 1.0);
  if (lo.y > hi.y) lo.y = hi.y = std::clamp(center.y, 0.0, 1.0);
  return BBox(lo, hi);
}

BBox BBox::Expanded(double r) const {
  MQA_CHECK(r >= 0.0) << "negative expansion radius " << r;
  return BBox({lo_.x - r, lo_.y - r}, {hi_.x + r, hi_.y + r});
}

BBox Union(const BBox& a, const BBox& b) {
  return BBox({std::min(a.lo().x, b.lo().x), std::min(a.lo().y, b.lo().y)},
              {std::max(a.hi().x, b.hi().x), std::max(a.hi().y, b.hi().y)});
}

std::ostream& operator<<(std::ostream& os, const BBox& box) {
  return os << "[" << box.lo() << " - " << box.hi() << "]";
}

}  // namespace mqa

#include "stats/distance_stats.h"

#include <algorithm>
#include <cmath>

#include "stats/uniform_moments.h"

namespace mqa {

namespace {

AxisMoments MomentsOf(double lb, double ub) {
  return {UniformRawMoment(lb, ub, 1), UniformRawMoment(lb, ub, 2),
          UniformRawMoment(lb, ub, 3), UniformRawMoment(lb, ub, 4)};
}

// E(Z_r^2) with Z_r = W[r] - T[r] (paper Eq. 4):
//   Var(W) + Var(T) + (E(W) - E(T))^2.
double AxisSecondMoment(const AxisMoments& w, const AxisMoments& t) {
  const double var_w = w.m2 - w.m1 * w.m1;
  const double var_t = t.m2 - t.m1 * t.m1;
  const double d = w.m1 - t.m1;
  return var_w + var_t + d * d;
}

// E(Z_r^4) by binomial expansion of (W - T)^4 (paper Eq. 5).
double AxisFourthMoment(const AxisMoments& w, const AxisMoments& t) {
  return w.m4 - 4.0 * w.m3 * t.m1 + 6.0 * w.m2 * t.m2 - 4.0 * w.m1 * t.m3 +
         t.m4;
}

SquaredDistanceMoments SquaredMoments(const BoxMoments& w,
                                      const BoxMoments& t) {
  const double e_z1_sq = AxisSecondMoment(w.x, t.x);
  const double e_z2_sq = AxisSecondMoment(w.y, t.y);
  const double e_z1_4 = AxisFourthMoment(w.x, t.x);
  const double e_z2_4 = AxisFourthMoment(w.y, t.y);

  SquaredDistanceMoments out;
  // Eq. (2): E(Z^2) = E(Z_1^2) + E(Z_2^2).
  out.mean = e_z1_sq + e_z2_sq;
  // Eq. (3): E(Z^4) = E(Z_1^4) + 2 E(Z_1^2) E(Z_2^2) + E(Z_2^4)
  //          (Z_1, Z_2 independent), minus (E(Z^2))^2.
  const double e_z4 = e_z1_4 + 2.0 * e_z1_sq * e_z2_sq + e_z2_4;
  out.variance = std::max(0.0, e_z4 - out.mean * out.mean);
  return out;
}

}  // namespace

BoxMoments MomentsOf(const BBox& box) {
  return {MomentsOf(box.lo().x, box.hi().x),
          MomentsOf(box.lo().y, box.hi().y)};
}

SquaredDistanceMoments ComputeSquaredDistanceMoments(const BBox& w,
                                                     const BBox& t) {
  return SquaredMoments(MomentsOf(w), MomentsOf(t));
}

Uncertain DistanceBetween(const BBox& w, const BBox& t) {
  // Point pairs need no moments.
  if (w.IsPoint() && t.IsPoint()) {
    return Uncertain::Fixed(Distance(w.lo(), t.lo()));
  }
  return DistanceBetween(w, MomentsOf(w), t, MomentsOf(t));
}

Uncertain DistanceBetween(const BBox& w, const BoxMoments& wm, const BBox& t,
                          const BoxMoments& tm) {
  if (w.IsPoint() && t.IsPoint()) {
    return Uncertain::Fixed(Distance(w.lo(), t.lo()));
  }
  const SquaredDistanceMoments sq = SquaredMoments(wm, tm);
  const double lb = w.MinDistance(t);
  const double ub = w.MaxDistance(t);

  // Delta method around E(Z^2). Guard against a vanishing mean (boxes
  // stacked on the same point) where the linearization degenerates.
  double mean = std::sqrt(std::max(sq.mean, 0.0));
  double var = sq.mean > 1e-12 ? sq.variance / (4.0 * sq.mean) : 0.0;

  mean = std::clamp(mean, lb, ub);
  // The variance of a bounded variable cannot exceed (range/2)^2.
  const double half_range = 0.5 * (ub - lb);
  var = std::min(var, half_range * half_range);
  return Uncertain(mean, var, lb, ub);
}

}  // namespace mqa

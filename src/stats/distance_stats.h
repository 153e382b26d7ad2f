#ifndef MQA_STATS_DISTANCE_STATS_H_
#define MQA_STATS_DISTANCE_STATS_H_

#include "geo/bbox.h"
#include "stats/uncertain.h"

namespace mqa {

/// Mean and variance of the squared Euclidean distance
/// Z^2 = sum_r (W[r] - T[r])^2 between two independent points W, T that
/// are uniformly distributed in the boxes `w` and `t` respectively.
/// Implements the paper's Eqs. (2)-(5) exactly, via closed-form raw
/// moments of the uniform distribution. Degenerate boxes (points) are
/// handled uniformly: their moments collapse to powers of the coordinate.
struct SquaredDistanceMoments {
  double mean = 0.0;      // E(Z^2)
  double variance = 0.0;  // Var(Z^2)
};

SquaredDistanceMoments ComputeSquaredDistanceMoments(const BBox& w,
                                                     const BBox& t);

/// Raw moments E(X), E(X^2), E(X^3), E(X^4) of one uniform coordinate.
struct AxisMoments {
  double m1, m2, m3, m4;
};

/// Both axes' raw moments of a point uniform in one box: all that Eqs.
/// (2)-(5) need from one endpoint. They depend on the box alone, so a
/// caller that pairs one entity with many computes them once.
struct BoxMoments {
  AxisMoments x, y;
};

BoxMoments MomentsOf(const BBox& box);

/// Distribution summary of the Euclidean distance Z = dist(W, T) between
/// uniform boxes.
///
/// The paper derives only E(Z^2)/Var(Z^2); comparisons (Eq. 8) and the
/// chance constraint (Eq. 9) need moments of Z itself. We map by the delta
/// method: E(Z) ~= sqrt(E(Z^2)), Var(Z) ~= Var(Z^2) / (4 E(Z^2)), and take
/// *hard* support bounds from the boxes' min/max distance (these bounds
/// are exact, so the Lemma 4.1 dominance pruning remains sound).
Uncertain DistanceBetween(const BBox& w, const BBox& t);

/// The same, from precomputed moments: `wm` must be MomentsOf(w) and `tm`
/// MomentsOf(t). Bit-identical to DistanceBetween(w, t).
Uncertain DistanceBetween(const BBox& w, const BoxMoments& wm, const BBox& t,
                          const BoxMoments& tm);

}  // namespace mqa

#endif  // MQA_STATS_DISTANCE_STATS_H_

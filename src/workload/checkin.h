#ifndef MQA_WORKLOAD_CHECKIN_H_
#define MQA_WORKLOAD_CHECKIN_H_

#include <cstdint>

#include "sim/arrival_stream.h"

namespace mqa {

/// Substitute for the paper's real datasets (Gowalla worker check-ins and
/// Foursquare task check-ins restricted to San Francisco; see
/// docs/DEVIATIONS.md, row D7). Synthesizes a venue-based LBSN check-in
/// stream reproducing the properties the evaluation relies on:
///
///  * locations cluster around venues, venues cluster around a handful of
///    downtown hotspots (mixture of Gaussians);
///  * venue popularity is heavy-tailed (Zipf);
///  * workers and tasks come from *different* services: separate venue
///    sets and different hotspot mixture weights;
///  * the spatial distribution drifts over time (random-walk reweighting
///    of hotspots per instance) — the paper observes that the real worker
///    distribution "changes quickly over time", which is what makes the
///    Fig. 10 prediction error grow with the window size on real data;
///  * arrivals per instance follow a double-peak daily intensity curve.
struct CheckinConfig {
  /// Scale: the paper's SF extraction has 6,143 workers and 8,481 tasks.
  int64_t num_workers = 6143;
  int64_t num_tasks = 8481;
  int num_instances = 15;  // R subintervals of the time span

  int num_hotspots = 5;

  /// Hotspot centers are drawn uniformly from this sub-square. Real SF
  /// check-ins occupy a fraction of the city bounding box (downtown +
  /// Mission), so the footprint diameter stays well below the data
  /// space's — which keeps typical assignment costs small relative to
  /// the paper's B=300 budget (the slack-budget regime of Fig. 12/13).
  double hotspot_center_lo = 0.3;
  double hotspot_center_hi = 0.7;

  /// Venue spread around a hotspot. Real check-ins concentrate tightly in
  /// a few downtown blocks once the city bounding box is mapped to
  /// [0,1]^2; a small sigma keeps typical worker-task distances well
  /// below the synthetic workload's, which is what makes the paper's
  /// budget effectively slack on real data (Fig. 12/13 regime).
  double hotspot_sigma = 0.06;

  /// Displacement of *task* hotspot centers from the worker hotspot
  /// centers (random direction, this magnitude). Workers and tasks come
  /// from different services (Gowalla vs Foursquare), so their hotspots
  /// do not coincide; the offset makes tight task deadlines
  /// matching-limited (few reachable pairs) while moderate deadlines
  /// bridge the gap cheaply — the regime behind the paper's Fig. 13.
  double task_hotspot_offset = 0.18;
  int num_worker_venues = 400;
  int num_task_venues = 600;
  double venue_popularity_skew = 1.0;  // Zipf exponent over venues
  double checkin_jitter = 0.01;        // location noise around a venue

  /// Per-instance random-walk step of the hotspot mixture weights.
  double drift = 0.25;

  double velocity_lo = 0.2;
  double velocity_hi = 0.3;
  double deadline_lo = 1.0;
  double deadline_hi = 2.0;

  uint64_t seed = 42;
};

/// Generates the check-in arrival stream.
ArrivalStream GenerateCheckin(const CheckinConfig& config);

}  // namespace mqa

#endif  // MQA_WORKLOAD_CHECKIN_H_

#include "workload/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "workload/synthetic.h"

namespace mqa {

namespace {

constexpr uint64_t kWorkerStreamTag = 0x94d049bb133111ebull;
constexpr uint64_t kTaskStreamTag = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kBurstTag = 0x2545f4914f6cdd1dull;
constexpr int kCdfBins = 4096;

struct Burst {
  double center = 0.0;  // fraction of the horizon
  double width = 0.0;
  double amplitude = 1.0;
};

/// Arrival intensity at horizon fraction x in [0, 1), as a multiple of
/// the base rate. Only the *shape* matters — the inverse-CDF sampler
/// normalizes — so the base rate is 1.
double Intensity(const ScenarioConfig& config, const std::vector<Burst>& bursts,
                 double x) {
  switch (config.kind) {
    case ScenarioKind::kPaper:
    case ScenarioKind::kHotspotDrift:
      return 1.0;
    case ScenarioKind::kRushHour: {
      const double d1 = (x - config.rush_peak1) / config.rush_width;
      const double d2 = (x - config.rush_peak2) / config.rush_width;
      return 1.0 + config.rush_amplitude *
                       (std::exp(-d1 * d1) + std::exp(-d2 * d2));
    }
    case ScenarioKind::kBursty: {
      double rate = 1.0;
      for (const Burst& b : bursts) {
        if (std::fabs(x - b.center) <= 0.5 * b.width) rate += b.amplitude;
      }
      return rate;
    }
  }
  return 1.0;
}

/// cdf[i] = P(arrival in the first i+1 of kCdfBins horizon slices).
std::vector<double> BuildCdf(const ScenarioConfig& config,
                             const std::vector<Burst>& bursts) {
  std::vector<double> cdf(kCdfBins);
  double cum = 0.0;
  for (int i = 0; i < kCdfBins; ++i) {
    const double x = (static_cast<double>(i) + 0.5) / kCdfBins;
    cum += Intensity(config, bursts, x);
    cdf[static_cast<size_t>(i)] = cum;
  }
  for (double& v : cdf) v /= cum;
  return cdf;
}

/// Inverse-CDF draw: maps u in [0,1) to a time in [0, horizon), linearly
/// interpolated inside the bin.
double SampleTime(const std::vector<double>& cdf, double horizon, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const size_t i = std::min(static_cast<size_t>(it - cdf.begin()),
                            cdf.size() - 1);
  const double lo = i == 0 ? 0.0 : cdf[i - 1];
  const double mass = cdf[i] - lo;
  const double frac = mass > 0.0 ? (u - lo) / mass : 0.0;
  const double t =
      (static_cast<double>(i) + std::min(std::max(frac, 0.0), 1.0)) /
      kCdfBins * horizon;
  return std::min(t, std::nextafter(horizon, 0.0));
}

/// Reflects x into [0, 1] (arguments stay within one fold for any drift
/// path inside the unit square).
double Reflect(double x) {
  if (x < 0.0) x = -x;
  if (x > 1.0) x = 2.0 - x;
  return std::min(1.0, std::max(0.0, x));
}

Point DriftedLocation(const ScenarioConfig& config,
                      const SpatialDistConfig& dist, double time, Rng* rng) {
  const Point base = SampleLocation(dist, rng);
  if (config.kind != ScenarioKind::kHotspotDrift) return base;
  // Translate the distribution so its reference center (the unit
  // square's center) migrates along the drift path, reflecting spill at
  // the boundary.
  const double a = config.horizon > 0.0 ? time / config.horizon : 0.0;
  const Point center{
      config.drift_start.x + a * (config.drift_end.x - config.drift_start.x),
      config.drift_start.y + a * (config.drift_end.y - config.drift_start.y)};
  return {Reflect(base.x + center.x - 0.5), Reflect(base.y + center.y - 0.5)};
}

/// Below this size a single std::sort beats the fork/merge overhead.
constexpr int64_t kParallelSortMin = 1 << 15;

/// Sorts `v` under `less`, fanning contiguous runs out over the pool and
/// merging pairwise. `less` must be a *total* order (ties broken by a
/// unique id): then the sorted permutation is unique, so the output is
/// byte-identical to a plain std::sort for any pool size.
template <typename T, typename Less>
void ParallelSort(std::vector<T>& v, ThreadPool* pool, Less less) {
  const int64_t n = static_cast<int64_t>(v.size());
  const int64_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (threads <= 1 || n < kParallelSortMin) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  std::vector<int64_t> bounds(static_cast<size_t>(threads) + 1);
  for (int64_t r = 0; r <= threads; ++r) {
    bounds[static_cast<size_t>(r)] = r * n / threads;
  }
  pool->ParallelFor(threads, [&](int64_t r) {
    std::sort(v.begin() + bounds[static_cast<size_t>(r)],
              v.begin() + bounds[static_cast<size_t>(r) + 1], less);
  });
  std::vector<T> scratch(v.size());
  std::vector<T>* src = &v;
  std::vector<T>* dst = &scratch;
  while (bounds.size() > 2) {
    const int64_t pairs = static_cast<int64_t>(bounds.size() - 1) / 2;
    const bool odd_run = (bounds.size() - 1) % 2 != 0;
    pool->ParallelFor(pairs + (odd_run ? 1 : 0), [&](int64_t p) {
      const size_t b = static_cast<size_t>(2 * p);
      if (p < pairs) {
        std::merge(src->begin() + bounds[b], src->begin() + bounds[b + 1],
                   src->begin() + bounds[b + 1], src->begin() + bounds[b + 2],
                   dst->begin() + bounds[b], less);
      } else {
        std::copy(src->begin() + bounds[b], src->begin() + bounds[b + 1],
                  dst->begin() + bounds[b]);
      }
    });
    std::vector<int64_t> next;
    next.reserve(static_cast<size_t>(pairs) + 2);
    next.push_back(0);
    for (int64_t p = 0; p < pairs; ++p) {
      next.push_back(bounds[static_cast<size_t>(2 * p) + 2]);
    }
    if (odd_run) next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != &v) v = std::move(scratch);
}

}  // namespace

const char* ScenarioKindToString(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kPaper:
      return "PAPER";
    case ScenarioKind::kRushHour:
      return "RUSH-HOUR";
    case ScenarioKind::kBursty:
      return "BURSTY";
    case ScenarioKind::kHotspotDrift:
      return "HOTSPOT-DRIFT";
  }
  return "?";
}

ScenarioStream GenerateScenario(const ScenarioConfig& config,
                                ThreadPool* pool) {
  MQA_CHECK(config.horizon > 0.0 && std::isfinite(config.horizon))
      << "scenario horizon must be positive and finite";
  MQA_CHECK(config.velocity_lo > 0.0 &&
            config.velocity_lo <= config.velocity_hi)
      << "invalid velocity range";
  MQA_CHECK(config.deadline_lo >= 0.0 &&
            config.deadline_lo <= config.deadline_hi)
      << "invalid deadline range";

  // Seed-derived burst placement, fixed before the parallel fan-out so
  // every chunk sees the same intensity landscape.
  std::vector<Burst> bursts;
  if (config.kind == ScenarioKind::kBursty) {
    Rng burst_rng(ShardSeed(config.seed, static_cast<int64_t>(kBurstTag)));
    bursts.reserve(static_cast<size_t>(std::max(0, config.num_bursts)));
    for (int b = 0; b < config.num_bursts; ++b) {
      Burst burst;
      burst.center = burst_rng.Uniform(0.05, 0.95);
      burst.width = config.burst_width;
      burst.amplitude = config.burst_amplitude;
      bursts.push_back(burst);
    }
  }
  const std::vector<double> cdf = BuildCdf(config, bursts);

  ScenarioStream stream;
  stream.workers.resize(static_cast<size_t>(config.num_workers));
  stream.tasks.resize(static_cast<size_t>(config.num_tasks));

  const int64_t worker_chunks =
      (config.num_workers + kWorkloadChunk - 1) / kWorkloadChunk;
  const int64_t task_chunks =
      (config.num_tasks + kWorkloadChunk - 1) / kWorkloadChunk;

  // Per-chunk RNG streams exactly as in GenerateSynthetic: the chunk
  // ordinal, never the executing thread, determines the stream.
  const auto fill_chunk = [&](int64_t c) {
    if (c < worker_chunks) {
      Rng rng(ShardSeed(config.seed ^ kWorkerStreamTag, c));
      const int64_t lo = c * kWorkloadChunk;
      const int64_t hi =
          std::min(config.num_workers, lo + kWorkloadChunk);
      for (int64_t g = lo; g < hi; ++g) {
        const double time = SampleTime(cdf, config.horizon, rng.Uniform());
        Worker w;
        w.id = g;
        w.location = BBox::FromPoint(
            DriftedLocation(config, config.worker_dist, time, &rng));
        w.velocity =
            rng.GaussianInRange(config.velocity_lo, config.velocity_hi);
        w.arrival = static_cast<Timestamp>(std::floor(time));
        stream.workers[static_cast<size_t>(g)] = {time, w};
      }
    } else {
      const int64_t tc = c - worker_chunks;
      Rng rng(ShardSeed(config.seed ^ kTaskStreamTag, tc));
      const int64_t lo = tc * kWorkloadChunk;
      const int64_t hi =
          std::min(config.num_tasks, lo + kWorkloadChunk);
      for (int64_t g = lo; g < hi; ++g) {
        const double time = SampleTime(cdf, config.horizon, rng.Uniform());
        Task t;
        t.id = g;
        t.location = BBox::FromPoint(
            DriftedLocation(config, config.task_dist, time, &rng));
        t.deadline =
            rng.GaussianInRange(config.deadline_lo, config.deadline_hi);
        t.arrival = static_cast<Timestamp>(std::floor(time));
        stream.tasks[static_cast<size_t>(g)] = {time, t};
      }
    }
  };

  RunWorkloadChunks(worker_chunks + task_chunks, pool, fill_chunk);

  // (time, id) orders are total and input-independent, so the sorted
  // sequence is unique: the parallel chunk-sort + merge below produces
  // exactly what a single std::sort would, for any thread count.
  ParallelSort(stream.workers, pool,
               [](const TimedWorker& a, const TimedWorker& b) {
                 if (a.time != b.time) return a.time < b.time;
                 return a.worker.id < b.worker.id;
               });
  ParallelSort(stream.tasks, pool,
               [](const TimedTask& a, const TimedTask& b) {
                 if (a.time != b.time) return a.time < b.time;
                 return a.task.id < b.task.id;
               });
  return stream;
}

ArrivalStream ScenarioToArrivalStream(const ScenarioStream& scenario,
                                      int num_instances) {
  MQA_CHECK(num_instances >= 1) << "need at least one instance";
  ArrivalStream stream;
  stream.workers.resize(static_cast<size_t>(num_instances));
  stream.tasks.resize(static_cast<size_t>(num_instances));
  for (const TimedWorker& tw : scenario.workers) {
    const auto p = static_cast<size_t>(std::min<int64_t>(
        num_instances - 1,
        std::max<int64_t>(0, static_cast<int64_t>(std::floor(tw.time)))));
    Worker w = tw.worker;
    w.arrival = static_cast<Timestamp>(p);
    stream.workers[p].push_back(std::move(w));
  }
  for (const TimedTask& tt : scenario.tasks) {
    const auto p = static_cast<size_t>(std::min<int64_t>(
        num_instances - 1,
        std::max<int64_t>(0, static_cast<int64_t>(std::floor(tt.time)))));
    Task t = tt.task;
    t.arrival = static_cast<Timestamp>(p);
    stream.tasks[p].push_back(std::move(t));
  }
  return stream;
}

}  // namespace mqa

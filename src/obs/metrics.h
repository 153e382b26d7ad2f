#ifndef MQA_OBS_METRICS_H_
#define MQA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mqa {

/// Monotonic named counter. Handles are stable for the process lifetime;
/// Add is one relaxed atomic add — safe and cheap from any thread.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Clear() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins named value (e.g. a configuration knob or the latest
/// backlog depth).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Clear() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed latency/size histogram with quantile extraction.
///
/// Bucketing: values are keyed by their binary exponent split into
/// kSubBuckets geometric sub-steps — bucket boundaries are
/// 2^e * (1 + s/kSubBuckets) for integer e and s in [0, kSubBuckets).
/// That caps the relative quantile error at 1/kSubBuckets (12.5%) over
/// the full double range [2^-64, 2^64), using a fixed 4 KB count array —
/// no allocation on Record, ever. Values <= 0 or below the range land in
/// a dedicated underflow bucket; values above saturate the top bucket.
///
/// Record is two relaxed atomic adds plus two CAS loops (min/max) —
/// uncontended nanoseconds. Quantile/CountForTesting walk the fixed
/// array. Concurrent Record during a read gives a momentarily torn but
/// sane snapshot (counts lag sum), which is fine for monitoring output.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;   // relative error <= 1/8
  static constexpr int kMinExponent = -64;
  static constexpr int kMaxExponent = 64;
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;  // + underflow slot

  Histogram();

  void Record(double v);

  /// Zeroes all state (only safe when no concurrent Record — tests).
  void Clear();

  /// q in [0, 1]. Returns the upper boundary of the bucket holding the
  /// rank-ceil(q * count) sample (0 when empty) — a deterministic
  /// function of the recorded multiset, never of recording order.
  double Quantile(double q) const;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  double mean() const;

  /// Bucket index a value maps to, and that bucket's [lower, upper)
  /// boundaries — exposed so tests can pin the bucketing scheme.
  static int BucketIndex(double v);
  static double BucketLowerBound(int index);
  static double BucketUpperBound(int index);
  int64_t CountForTesting(int index) const {
    return buckets_[static_cast<size_t>(index)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kNumBuckets];
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Process-wide named metrics: counters, gauges and histograms, created
/// on first use and exported as JSON (nested in the run report).
///
/// Naming scheme: dot-separated lowercase path, subsystem first —
/// "mqa.epoch.count", "mqa.phase.assign.self_seconds",
/// "mqa.pool.pairs" (see docs/OBSERVABILITY.md for the full inventory).
///
/// Lookup takes a mutex; hot paths must look a handle up once (the
/// MQA_METRIC_* macros cache it in a function-local static) and then
/// operate lock-free on the handle. Like the tracer, the registry never
/// feeds values back into the computation, so instrumented and bare runs
/// stay byte-identical.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Find-or-create. Returned pointers live for the process lifetime
  /// (even across Reset, which only zeroes values).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Zeroes every metric (tests). Handles stay valid.
  void Reset();

  /// JSON object: {"counters": {name: value, ...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, min, max, p50, p90, p99},
  /// ...}}. Keys sorted (std::map) — deterministic given the same values.
  void WriteJson(std::ostream& out) const;
  std::string ToJsonString() const;

 private:
  MetricsRegistry() = default;
  ~MetricsRegistry() = delete;  // intentionally leaked, like the tracer

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mqa

/// Hot-path metric macros: one mutex lookup on first execution, then a
/// lock-free handle operation. Compile to nothing under
/// -DMQA_OBS_DISABLED. `name` must be a constant expression (the cached
/// handle ignores later name changes).
#if defined(MQA_OBS_DISABLED)
#define MQA_METRIC_COUNT(name, n) \
  do {                            \
  } while (false)
#define MQA_METRIC_GAUGE_SET(name, v) \
  do {                                \
  } while (false)
#define MQA_METRIC_RECORD(name, v) \
  do {                             \
  } while (false)
#else
#define MQA_METRIC_COUNT(name, n)                                  \
  do {                                                             \
    static ::mqa::Counter* mqa_metric_handle =                     \
        ::mqa::MetricsRegistry::Get().counter(name);               \
    mqa_metric_handle->Add(n);                                     \
  } while (false)
#define MQA_METRIC_GAUGE_SET(name, v)                              \
  do {                                                             \
    static ::mqa::Gauge* mqa_metric_handle =                       \
        ::mqa::MetricsRegistry::Get().gauge(name);                 \
    mqa_metric_handle->Set(v);                                     \
  } while (false)
#define MQA_METRIC_RECORD(name, v)                                 \
  do {                                                             \
    static ::mqa::Histogram* mqa_metric_handle =                   \
        ::mqa::MetricsRegistry::Get().histogram(name);             \
    mqa_metric_handle->Record(v);                                  \
  } while (false)
#endif

#endif  // MQA_OBS_METRICS_H_

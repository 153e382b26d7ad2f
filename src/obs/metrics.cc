#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace mqa {

namespace {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* target, double v) {
  double current = target->load(std::memory_order_relaxed);
  while (v < current && !target->compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double v) {
  double current = target->load(std::memory_order_relaxed);
  while (v > current && !target->compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram() { Clear(); }

void Histogram::Clear() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || std::isinf(v)) {
    // <= 0, NaN: underflow slot; +inf saturates the top bucket.
    return std::isinf(v) && v > 0.0 ? kNumBuckets - 1 : 0;
  }
  int exp;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5,1)
  const int exponent = exp - 1;             // v = (2*frac) * 2^exponent
  if (exponent < kMinExponent) return 0;
  if (exponent >= kMaxExponent) return kNumBuckets - 1;
  const int sub = static_cast<int>((2.0 * frac - 1.0) * kSubBuckets);
  return 1 + (exponent - kMinExponent) * kSubBuckets +
         (sub < kSubBuckets ? sub : kSubBuckets - 1);
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  const int exponent = kMinExponent + (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exponent);
}

double Histogram::BucketUpperBound(int index) {
  if (index <= 0) return 0.0;
  return BucketLowerBound(index + 1);
}

void Histogram::Record(double v) {
  buckets_[static_cast<size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
  AtomicMinDouble(&min_, v);
  AtomicMaxDouble(&max_, v);
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  int64_t cumulative = 0;
  for (int index = 0; index < kNumBuckets; ++index) {
    cumulative +=
        buckets_[static_cast<size_t>(index)].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // The bucket's upper boundary, clamped to the observed range so a
      // single-valued histogram reports that value exactly.
      double v = BucketUpperBound(index);
      const double lo = min();
      const double hi = max();
      if (v < lo) v = lo;
      if (v > hi) v = hi;
      return v;
    }
  }
  return max();
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) && v > 0.0 ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) && v < 0.0 ? 0.0 : v;
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    (void)name;
    c->Clear();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->Clear();
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->Clear();
  }
}

namespace {

void WriteJsonKey(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void WriteDouble(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out << buf;
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonKey(out, name);
    out << ": " << c->value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonKey(out, name);
    out << ": ";
    WriteDouble(out, g->value());
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonKey(out, name);
    out << ": {\"count\": " << h->count() << ", \"sum\": ";
    WriteDouble(out, h->sum());
    out << ", \"mean\": ";
    WriteDouble(out, h->mean());
    out << ", \"min\": ";
    WriteDouble(out, h->min());
    out << ", \"max\": ";
    WriteDouble(out, h->max());
    out << ", \"p50\": ";
    WriteDouble(out, h->Quantile(0.50));
    out << ", \"p90\": ";
    WriteDouble(out, h->Quantile(0.90));
    out << ", \"p99\": ";
    WriteDouble(out, h->Quantile(0.99));
    out << "}";
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

std::string MetricsRegistry::ToJsonString() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

}  // namespace mqa

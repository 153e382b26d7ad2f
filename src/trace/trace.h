#ifndef MQA_TRACE_TRACE_H_
#define MQA_TRACE_TRACE_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "model/types.h"
#include "sim/arrival_stream.h"
#include "workload/scenario.h"

namespace mqa {

/// The largest horizon a trace may declare: kMaxInstances. Batch replay
/// buckets the arrivals into ceil(horizon) per-instance batches, so an
/// unbounded header could overflow the instance count or exhaust memory.
inline constexpr double kMaxTraceHorizon = kMaxInstances;

/// A loaded trace: timestamped worker/task arrivals in file order (times
/// non-decreasing per list) plus the horizon from the header. The two
/// replay paths both start here:
///   - streaming: EventQueue::FromScenario(trace.scenario) with
///     StreamingConfig::horizon = trace.horizon;
///   - batch: trace.ToArrivalStream() (per-instance buckets).
/// A trace recorded from an ArrivalStream has integer times (time ==
/// batch index), so both paths reproduce the original run byte-for-byte
/// (the batch/stream-equivalence contract in docs/TESTING.md).
struct TraceData {
  double horizon = 0.0;
  ScenarioStream scenario;

  /// Instance count covering the horizon: ceil(horizon), at least 1.
  int num_instances() const;

  /// Buckets the arrivals into per-instance batches (instance p holds
  /// floor(time) == p), preserving file order within each batch.
  ArrivalStream ToArrivalStream() const;
};

/// Buffers timestamped arrivals and emits an mqa-trace-v1 CSV file (format
/// spec in src/trace/README.md); Serialize/Parse round-trip every double
/// bit-exactly. Records are validated on Add (finite point location,
/// finite non-negative attributes, non-negative id, times non-decreasing
/// per list within [0, horizon)), so a writer that accepted every Add
/// always serializes a trace the reader accepts.
class TraceWriter {
 public:
  /// `horizon` is the trace's continuous-time span (for a recorded
  /// ArrivalStream, the batch count); must be positive, finite and at
  /// most kMaxTraceHorizon.
  explicit TraceWriter(double horizon);

  Status AddWorker(double time, const Worker& worker);
  Status AddTask(double time, const Task& task);

  /// Appends a whole scenario (its lists are already (time, id)-sorted).
  Status AddScenario(const ScenarioStream& scenario);

  /// Appends a batch arrival stream, stamping each batch-p entity with
  /// time p. Replaying the trace through ToArrivalStream reproduces the
  /// original batches exactly.
  Status AddArrivalStream(const ArrivalStream& stream);

  double horizon() const { return horizon_; }
  const ScenarioStream& scenario() const { return scenario_; }

  /// Renders the buffered trace as mqa-trace-v1 CSV.
  Result<std::string> Serialize() const;
  Status WriteFile(const std::string& path) const;

 private:
  double horizon_ = 0.0;
  double last_worker_time_ = 0.0;
  double last_task_time_ = 0.0;
  ScenarioStream scenario_;
};

/// Loads mqa-trace-v1 CSV files. Every malformed input — a missing
/// '# mqa-trace-v1' header, a horizon past kMaxTraceHorizon, malformed
/// rows, non-finite coordinates, negative velocities, out-of-order
/// timestamps — yields a clean Status, never a crash (coordinates are
/// checked before any BBox is constructed; NaN corners would abort
/// there).
class TraceReader {
 public:
  static Result<TraceData> ReadFile(const std::string& path);

  /// Parses in-memory bytes (what ReadFile read) — also the test hook
  /// for malformed-input coverage without touching disk.
  static Result<TraceData> Parse(const std::string& bytes);
};

}  // namespace mqa

#endif  // MQA_TRACE_TRACE_H_

#ifndef MQA_STREAM_STREAMING_SIMULATOR_H_
#define MQA_STREAM_STREAMING_SIMULATOR_H_

#include <cstdint>

#include "common/result.h"
#include "core/assigner.h"
#include "quality/quality_model.h"
#include "sim/simulator_config.h"
#include "stream/event_queue.h"
#include "stream/stream_metrics.h"

namespace mqa {

/// When the streaming engine cuts an assignment epoch out of the event
/// stream. See src/stream/README.md for the full semantics.
enum class EpochPolicyKind {
  /// One epoch per instance-duration tick — the determinism anchor: fed
  /// the events of a batch ArrivalStream, the engine reproduces the batch
  /// Simulator byte-for-byte (property-tested).
  kPerInstance,
  /// One epoch every `interval` continuous-time units.
  kFixedInterval,
  /// An epoch as soon as `k_arrivals` new arrival events accumulated
  /// since the last epoch (plus a final flush).
  kEveryKArrivals,
  /// An epoch as soon as the live backlog estimate (pending unassigned
  /// tasks plus staged task arrivals, minus expiry notifications) reaches
  /// `backlog_threshold`, with a `max_interval` failsafe so a trickling
  /// stream still gets served (plus a final flush).
  kAdaptiveBacklog,
};

const char* EpochPolicyKindToString(EpochPolicyKind kind);

struct EpochPolicy {
  EpochPolicyKind kind = EpochPolicyKind::kPerInstance;

  /// kFixedInterval: epoch spacing in continuous-time units.
  double interval = kInstanceDuration;

  /// kEveryKArrivals: arrival events per epoch.
  int64_t k_arrivals = 512;

  /// kAdaptiveBacklog: backlog depth that triggers an epoch, and the
  /// longest the engine lets the clock run without one.
  int64_t backlog_threshold = 256;
  double max_interval = 4.0 * kInstanceDuration;
};

struct StreamingConfig {
  /// The epoch core's knobs (budget per epoch, prediction, rejoin,
  /// threads) — identical meaning to the batch simulator.
  SimulatorConfig sim;

  EpochPolicy policy;

  /// Exclusive end of simulated time: epochs fire strictly before it and
  /// events at or past it are discarded (exactly how the batch loop drops
  /// rejoiners past the last instance). <= 0 derives
  /// floor(max arrival time) + 1, which for an ArrivalStream-fed queue is
  /// its instance count.
  double horizon = 0.0;
};

/// Event-driven online replacement for the batch Simulator: replays
/// timestamped arrival/completion/expiry events from an EventQueue,
/// maintains the worker/task pools across epochs, and cuts assignment
/// epochs by policy, each epoch driving the same EpochRunner
/// predict -> index -> assign -> validate core as the batch loop (which
/// loads the task index from each epoch's pools). On top of the batch
/// metrics it measures what only a stream exposes: per-epoch assignment
/// latency, arrival -> assignment queue waits, and backlog depth and
/// coverage (read off the epoch's pair pool).
class StreamingSimulator {
 public:
  /// `quality` must outlive the simulator.
  StreamingSimulator(const StreamingConfig& config,
                     const QualityModel* quality);

  /// Drains `queue` (consumed by the run; rejoin/expiry events are pushed
  /// into it as the simulation progresses). Returns an error when the
  /// config or an event payload is malformed or an assignment violates
  /// the MQA constraints, and InvalidArgument before any epoch when the
  /// horizon over the interval (per-instance: 1; adaptive: max_interval)
  /// exceeds kMaxInstances epochs.
  Result<StreamSummary> Run(EventQueue queue, Assigner* assigner);

 private:
  StreamingConfig config_;
  const QualityModel* quality_;
};

}  // namespace mqa

#endif  // MQA_STREAM_STREAMING_SIMULATOR_H_

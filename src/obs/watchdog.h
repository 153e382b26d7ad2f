#ifndef MQA_OBS_WATCHDOG_H_
#define MQA_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace mqa {

struct WatchdogConfig {
  /// Expected epoch duration. The watchdog fires when an armed epoch has
  /// been running longer than deadline_seconds * multiple.
  double deadline_seconds = 0.0;
  /// Slack factor: real epochs jitter, so a plain deadline would cry
  /// wolf. 3x is the "something is definitely stuck" threshold.
  double multiple = 3.0;
  /// How often the background thread checks armed epochs. <= 0 (the
  /// default) derives it from the threshold: a quarter of
  /// deadline_seconds * multiple, clamped to [1 ms, 250 ms], so even a
  /// sub-millisecond deadline sees an overrunning epoch in flight.
  double poll_interval_seconds = 0.0;
};

/// Stuck-run flight recorder. A background thread watches the currently
/// armed epoch; when it overruns deadline_seconds * multiple, the
/// watchdog logs every thread's in-flight span stack (via
/// Tracer::DumpOpenSpans) exactly once for that epoch — the post-mortem
/// you wish you had when a run wedges in CI, without attaching a
/// debugger. Observation only: it never interrupts or cancels work.
///
/// Usage: Start() once (CLI `--watchdog=SECONDS`, env
/// `MQA_WATCHDOG=seconds[,multiple]`), then bracket each epoch with
/// ArmEpoch(index) / DisarmEpoch() — EpochRunner does this automatically
/// through a RAII guard. Time comes from the Tracer clock, so tests
/// drive it deterministically with SetClockForTesting + PollForTesting.
class Watchdog {
 public:
  static Watchdog& Get();

  /// Starts the poll thread. Deadline <= 0 disables (no thread).
  /// Idempotent while running; Stop() first to change config.
  void Start(const WatchdogConfig& config);

  /// Stops and joins the poll thread. Safe when not started.
  void Stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Marks epoch `epoch_index` as running from now; re-arms the
  /// fire-once latch. Watchdog-off makes this a cheap no-op.
  void ArmEpoch(int64_t epoch_index);

  /// Clears the armed epoch (epoch finished).
  void DisarmEpoch();

  /// Number of flight-recorder dumps emitted since Start.
  int64_t fire_count() const {
    return fire_count_.load(std::memory_order_relaxed);
  }

  /// Runs one poll iteration on the calling thread (tests — no poll
  /// thread needed). Returns true when this call fired.
  bool PollForTesting();

  /// The last dump's text (tests).
  std::string last_dump_for_testing() const;

  /// If MQA_WATCHDOG is set ("seconds" or "seconds,multiple"), enables
  /// the tracer (the flight recorder reads its open-span stacks) and
  /// starts the watchdog. Idempotent.
  static void InitFromEnv();

  /// RAII epoch bracket used by the runners.
  class EpochGuard {
   public:
    explicit EpochGuard(int64_t epoch_index) {
      Watchdog::Get().ArmEpoch(epoch_index);
    }
    ~EpochGuard() { Watchdog::Get().DisarmEpoch(); }
    EpochGuard(const EpochGuard&) = delete;
    EpochGuard& operator=(const EpochGuard&) = delete;
  };

 private:
  Watchdog() = default;
  ~Watchdog() = delete;  // intentionally leaked, like the Tracer

  // Checks the armed epoch against the deadline; fires at most once per
  // armed epoch. Returns true when it fired.
  bool Poll();
  void Fire(int64_t epoch_index, double elapsed_seconds);

  std::atomic<bool> active_{false};
  WatchdogConfig config_;  // written before the thread starts

  std::atomic<int64_t> armed_epoch_{-1};  // -1 = no epoch armed
  std::atomic<int64_t> armed_at_ns_{0};
  std::atomic<bool> fired_this_epoch_{false};
  std::atomic<int64_t> fire_count_{0};

  std::thread thread_;
  std::mutex poll_mu_;  // wakes the poll thread early on Stop
  std::condition_variable poll_cv_;
  bool stop_requested_ = false;  // guarded by poll_mu_

  mutable std::mutex dump_mu_;
  std::string last_dump_;  // guarded by dump_mu_
};

}  // namespace mqa

#endif  // MQA_OBS_WATCHDOG_H_

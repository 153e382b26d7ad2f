#ifndef MQA_OBS_PROCESS_STATS_H_
#define MQA_OBS_PROCESS_STATS_H_

#include <cstdint>

namespace mqa {

/// Point-in-time view of the process itself — a run-report epoch row's
/// `process` object. Fields read 0 where the platform offers no cheap
/// answer (non-Linux /proc, failed getrusage); consumers must treat 0 as
/// "unknown", not "idle".
struct ProcessStats {
  /// Current resident set size, from /proc/self/statm (Linux). 0 when
  /// unreadable.
  int64_t rss_bytes = 0;

  /// Peak resident set size over the process lifetime (getrusage
  /// ru_maxrss). Monotone; the difference between two samples says
  /// whether the high-water mark moved.
  int64_t peak_rss_bytes = 0;

  /// Cumulative user + system CPU seconds (getrusage). Monotone; the
  /// delta between two samples divided by the wall delta is the
  /// process's average core utilization in that window.
  double cpu_user_seconds = 0.0;
  double cpu_system_seconds = 0.0;

  double cpu_seconds() const { return cpu_user_seconds + cpu_system_seconds; }
};

/// Samples the calling process. Cheap (one open/read/close of
/// /proc/self/statm into a small stack buffer + one getrusage call, no
/// allocation) — EpochRunner calls it once at the end of every epoch.
ProcessStats ReadProcessStats();

}  // namespace mqa

#endif  // MQA_OBS_PROCESS_STATS_H_

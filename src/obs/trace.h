#ifndef MQA_OBS_TRACE_H_
#define MQA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace mqa {

/// One finished span: a Chrome trace-event "complete" event ("ph":"X").
/// `name` must point at storage that outlives the tracer — in practice a
/// string literal (the MQA_TRACE_SPAN macros only accept literals); events
/// stay POD so appending is a plain store into the thread's chunk.
struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Optional integer payload (kNoArg = none), e.g. the epoch index or a
  /// worker-range index; exported as "args":{"v":N}.
  int64_t arg = kNoArg;

  static constexpr int64_t kNoArg = INT64_MIN;
};

/// Process-wide span collector emitting Chrome trace-event JSON (loadable
/// in Perfetto / chrome://tracing).
///
/// Hot-path design: every thread owns a chunked, append-only buffer
/// reached through a thread_local pointer. Appending writes the event
/// into the current chunk and then publishes it with one release store of
/// the chunk's count — no locks, no CAS, no contention between threads
/// (registration of a brand-new thread takes a mutex once per thread).
/// Buffers are never shrunk or freed while the process runs; the exporter
/// (WriteJson, typically at shutdown) walks all registered buffers,
/// reading each chunk's published prefix, so it is safe to run while
/// worker threads are still alive.
///
/// Disabled (the default), the entire layer costs one relaxed atomic load
/// and a branch per MQA_TRACE_SPAN. Tracing never feeds values back into
/// the computation: spans only read the clock, so traced and untraced runs
/// produce byte-identical assignments/scores (property-tested in
/// tests/obs_property_test.cc).
///
/// Time base: std::chrono::steady_clock (monotonic), zeroed at Enable().
/// Tests inject a deterministic clock via SetClockForTesting.
class Tracer {
 public:
  /// The process-wide instance (never destroyed: worker threads may still
  /// append during static destruction of other objects).
  static Tracer& Get();

  /// Whether spans are being collected. The MQA_TRACE_SPAN macros check
  /// this once at span open; a span that started enabled records even if
  /// tracing is disabled before it closes.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts collecting, zeroing the time base. Already-buffered events
  /// are kept (Enable after Disable resumes on the same buffers).
  void Enable();
  void Disable();

  /// Drops all buffered events and thread registrations. Only safe when
  /// no other thread can be inside a span (tests).
  void Reset();

  /// Nanoseconds since Enable() on the monotonic clock (or the injected
  /// test clock, verbatim).
  int64_t NowNs() const;

  /// Injects a deterministic clock for tests (nullptr restores the
  /// monotonic clock). Affects NowNs globally; tests only.
  using ClockFn = int64_t (*)();
  void SetClockForTesting(ClockFn clock);

  /// Names the calling thread's track in the exported trace (e.g.
  /// "worker-3"). Cheap; callable before or after the thread's first
  /// span, latest call wins.
  void SetCurrentThreadName(const std::string& name);

  /// Appends a finished span to the calling thread's buffer. Prefer the
  /// MQA_TRACE_SPAN macros; `name` must be a string literal.
  void AppendComplete(const char* name, int64_t start_ns, int64_t duration_ns,
                      int64_t arg = TraceEvent::kNoArg);

  /// Serializes every thread's published events as Chrome trace-event
  /// JSON ("traceEvents" array of "X" events plus thread_name metadata;
  /// timestamps in microseconds, events sorted by start time per thread).
  void WriteJson(std::ostream& out) const;
  std::string ToJsonString() const;

  /// WriteJson to a file. Returns a Status rather than aborting: a bad
  /// trace path must not kill a finished run.
  Status WriteJsonFile(const std::string& path) const;

  /// Number of published events across all threads (tests, sizing).
  int64_t event_count() const;

  /// If the MQA_TRACE environment variable names a file, enables tracing
  /// and registers an atexit hook that writes the trace there — the
  /// zero-plumbing surface for benches and examples. Idempotent.
  static void InitFromEnv();

 private:
  // Fixed-size chunk of one thread's buffer. The owning thread fills
  // `events[count]` then publishes with a release store of `count`;
  // readers acquire `count` and read only the prefix. `next` is written
  // once by the owner when the chunk fills.
  struct Chunk {
    static constexpr size_t kCapacity = 4096;
    std::atomic<size_t> count{0};
    std::atomic<Chunk*> next{nullptr};
    TraceEvent events[kCapacity];
  };

  // One thread's buffer + identity. Registered once (under mu_) on the
  // thread's first span; never unregistered — a thread that exits leaves
  // its events behind for the shutdown flush.
  struct ThreadBuffer {
    int64_t tid = 0;
    std::string name;  // guarded by Tracer::mu_
    std::unique_ptr<Chunk> head;
    std::atomic<Chunk*> tail{nullptr};

    // Overflow chunks are raw-linked (owner-thread growth); reclaim them
    // here (only Reset() destroys buffers, and only when no thread can be
    // appending).
    ~ThreadBuffer() {
      Chunk* chunk =
          head != nullptr ? head->next.load(std::memory_order_acquire)
                          : nullptr;
      while (chunk != nullptr) {
        Chunk* next = chunk->next.load(std::memory_order_acquire);
        delete chunk;
        chunk = next;
      }
    }
  };

  Tracer();
  ~Tracer() = delete;  // intentionally leaked (threads may outlive main)

  ThreadBuffer* CurrentThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<ClockFn> test_clock_{nullptr};
  std::atomic<int64_t> t0_ns_{0};

  mutable std::mutex mu_;  // registration + thread names + reset
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  int64_t next_tid_ = 0;
  std::atomic<uint64_t> generation_{0};  // bumped by Reset()
};

/// RAII span: records [construction, destruction) on the calling thread's
/// track when the tracer was enabled at construction.
class TraceSpan {
 public:
  /// A null `name` records nothing (the MQA_TRACE_SPAN_IF gate).
  explicit TraceSpan(const char* name, int64_t arg = TraceEvent::kNoArg) {
    Tracer& tracer = Tracer::Get();
    if (name != nullptr && tracer.enabled()) {
      name_ = name;
      arg_ = arg;
      start_ns_ = tracer.NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer& tracer = Tracer::Get();
      tracer.AppendComplete(name_, start_ns_, tracer.NowNs() - start_ns_,
                            arg_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t arg_ = TraceEvent::kNoArg;
};

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters: the one string writer of the trace and run-report
/// exporters.
void WriteJsonString(std::ostream& out, const std::string& s);

}  // namespace mqa

#define MQA_OBS_CONCAT_INNER(a, b) a##b
#define MQA_OBS_CONCAT(a, b) MQA_OBS_CONCAT_INNER(a, b)

/// Scoped phase span. `name` must be a string literal; the optional arg
/// form attaches one integer ("args":{"v":N} in the trace). Costs one
/// relaxed load when tracing is off.
#define MQA_TRACE_SPAN(name) \
  ::mqa::TraceSpan MQA_OBS_CONCAT(mqa_trace_span_, __LINE__)(name)
#define MQA_TRACE_SPAN_ARG(name, arg) \
  ::mqa::TraceSpan MQA_OBS_CONCAT(mqa_trace_span_, __LINE__)(name, (arg))
/// Span gated on a runtime condition — for call sites that are sometimes
/// hot-loop leaves (e.g. the D&C leaf solver), where an unconditional
/// span would explode the trace.
#define MQA_TRACE_SPAN_IF(cond, name, arg)                  \
  ::mqa::TraceSpan MQA_OBS_CONCAT(mqa_trace_span_, __LINE__)( \
      (cond) ? (name) : nullptr, (arg))

#endif  // MQA_OBS_TRACE_H_

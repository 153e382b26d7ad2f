#ifndef PBSC_BENCH_SPAN_RECORDER_H_
#define PBSC_BENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pbsc {

/// In-memory span log of the traced benchmark run: each span is a layer
/// call the benchmark made (or wrapped) with its start, end and the span
/// that caused it. Single-threaded by design — every span is opened on the
/// simulator's driving thread, around calls into the library's public
/// layer functions. Spans are written out once, when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int rep = 0;      // measured repetition the span belongs to
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void set_rep(int rep) { rep_ = rep; }

  /// Opens a span whose parent is the innermost open span.
  int Begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back(),
                      rep_});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span, which must be `id`.
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  /// Records a span the library timed itself (its duration is known, not
  /// its position): placed at the start of `parent`, clamped to its end.
  void AddTimedChild(const char* name, int parent, double seconds) {
    const Span& p = spans_[static_cast<size_t>(parent)];
    int64_t end = p.start_ns + static_cast<int64_t>(seconds * 1e9);
    if (end > p.end_ns) end = p.end_ns;
    spans_.push_back({name, p.start_ns, end, parent, rep_});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_ = 0;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace pbsc

#endif  // PBSC_BENCH_SPAN_RECORDER_H_

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mqa {

namespace {

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's buffer pointer, paired with the tracer generation
// it was registered under so Reset() (tests) invalidates it.
struct ThreadSlot {
  void* buffer = nullptr;
  uint64_t generation = ~uint64_t{0};
};
thread_local ThreadSlot t_slot;

// Name set before the thread's first span: applied when the buffer
// registers, so an idle named thread (e.g. a pool worker with tracing
// off) never allocates a buffer just to carry its name.
thread_local std::string t_pending_name;

}  // namespace

Tracer::Tracer() = default;

Tracer& Tracer::Get() {
  // Leaked on purpose: pool worker threads may emit spans during static
  // destruction; a destroyed tracer would be use-after-free.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  t0_ns_.store(test_clock_.load(std::memory_order_relaxed) != nullptr
                   ? 0
                   : MonotonicNowNs(),
               std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  next_tid_ = 0;
  generation_.fetch_add(1, std::memory_order_relaxed);
}

int64_t Tracer::NowNs() const {
  const ClockFn clock = test_clock_.load(std::memory_order_relaxed);
  if (clock != nullptr) return clock();
  return MonotonicNowNs() - t0_ns_.load(std::memory_order_relaxed);
}

void Tracer::SetClockForTesting(ClockFn clock) {
  test_clock_.store(clock, std::memory_order_relaxed);
  t0_ns_.store(0, std::memory_order_relaxed);
}

Tracer::ThreadBuffer* Tracer::CurrentThreadBuffer() {
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (t_slot.buffer != nullptr && t_slot.generation == gen) {
    return static_cast<ThreadBuffer*>(t_slot.buffer);
  }
  // Cold path: first span on this thread (or first after a Reset).
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->head = std::make_unique<Chunk>();
  buffer->tail.store(buffer->head.get(), std::memory_order_relaxed);
  ThreadBuffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->tid = next_tid_++;
    raw->name = t_pending_name;
    buffers_.push_back(std::move(buffer));
  }
  t_slot.buffer = raw;
  t_slot.generation = gen;
  return raw;
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  t_pending_name = name;
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (t_slot.buffer != nullptr && t_slot.generation == gen) {
    std::lock_guard<std::mutex> lock(mu_);
    static_cast<ThreadBuffer*>(t_slot.buffer)->name = name;
  }
}

void Tracer::AppendComplete(const char* name, int64_t start_ns,
                            int64_t duration_ns, int64_t arg) {
  ThreadBuffer* buffer = CurrentThreadBuffer();
  Chunk* tail = buffer->tail.load(std::memory_order_relaxed);
  size_t count = tail->count.load(std::memory_order_relaxed);
  if (count == Chunk::kCapacity) {
    // Owner-only growth: link a fresh chunk, publish it, keep appending.
    auto grown = std::make_unique<Chunk>();
    Chunk* raw = grown.release();
    tail->next.store(raw, std::memory_order_release);
    buffer->tail.store(raw, std::memory_order_relaxed);
    tail = raw;
    count = 0;
  }
  TraceEvent& event = tail->events[count];
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.arg = arg;
  // Publish: readers acquire `count` and see the fully written event.
  tail->count.store(count + 1, std::memory_order_release);
}

int64_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    for (const Chunk* chunk = buffer->head.get(); chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      total += static_cast<int64_t>(chunk->count.load(std::memory_order_acquire));
    }
  }
  return total;
}

void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

namespace {

/// Microsecond timestamp with nanosecond precision, printed as a fixed
/// three-decimal value (Perfetto accepts fractional "ts"/"dur").
void WriteMicros(std::ostream& out, int64_t ns) {
  const bool negative = ns < 0;
  if (negative) {
    out << '-';
    ns = -ns;
  }
  out << ns / 1000 << '.';
  const int64_t frac = ns % 1000;
  out << static_cast<char>('0' + frac / 100)
      << static_cast<char>('0' + (frac / 10) % 10)
      << static_cast<char>('0' + frac % 10);
}

}  // namespace

void Tracer::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& buffer : buffers_) {
    if (!buffer->name.empty()) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << buffer->tid << ",\"args\":{\"name\":";
      WriteJsonString(out, buffer->name);
      out << "}}";
    }
    // One thread's spans close in LIFO order (inner spans first), so the
    // raw buffer is not start-sorted; collect and sort per thread. Ties
    // break longest-duration first so parents precede their children —
    // the order trace viewers expect.
    std::vector<const TraceEvent*> events;
    for (const Chunk* chunk = buffer->head.get(); chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      const size_t count = chunk->count.load(std::memory_order_acquire);
      for (size_t k = 0; k < count; ++k) events.push_back(&chunk->events[k]);
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->duration_ns > b->duration_ns;
              });
    for (const TraceEvent* event : events) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":";
      WriteJsonString(out, event->name);
      out << ",\"cat\":\"mqa\",\"ph\":\"X\",\"ts\":";
      WriteMicros(out, event->start_ns);
      out << ",\"dur\":";
      WriteMicros(out, event->duration_ns);
      out << ",\"pid\":1,\"tid\":" << buffer->tid;
      if (event->arg != TraceEvent::kNoArg) {
        out << ",\"args\":{\"v\":" << event->arg << "}";
      }
      out << "}";
    }
  }
  out << "\n]}\n";
}

std::string Tracer::ToJsonString() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

Status Tracer::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open trace file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("error writing trace file: " + path);
  }
  return Status::OK();
}

void Tracer::InitFromEnv() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  const char* path = std::getenv("MQA_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  // Leaked copy: atexit runs after locals are gone.
  static const std::string* trace_path = new std::string(path);
  Get().Enable();
  std::atexit([] {
    const Status status = Get().WriteJsonFile(*trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "MQA_TRACE: %s\n", status.ToString().c_str());
    }
  });
}

}  // namespace mqa

#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "obs/trace.h"

namespace mqa {

Watchdog& Watchdog::Get() {
  static Watchdog* watchdog = new Watchdog();  // leaked on purpose
  return *watchdog;
}

void Watchdog::Start(const WatchdogConfig& config) {
  if (active()) return;
  if (config.deadline_seconds <= 0.0) return;
  config_ = config;
  armed_epoch_.store(-1, std::memory_order_relaxed);
  fired_this_epoch_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    stop_requested_ = false;
  }
  active_.store(true, std::memory_order_relaxed);
  const double poll_seconds =
      config_.poll_interval_seconds > 0.0
          ? config_.poll_interval_seconds
          : std::clamp(config_.deadline_seconds * config_.multiple / 4.0,
                       1e-3, 0.25);
  thread_ = std::thread([this, poll_seconds] {
    Tracer::Get().SetCurrentThreadName("mqa-watchdog");
    const auto interval =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::duration<double>(poll_seconds));
    std::unique_lock<std::mutex> lock(poll_mu_);
    while (!stop_requested_) {
      lock.unlock();
      Poll();
      lock.lock();
      poll_cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    }
  });
}

void Watchdog::Stop() {
  if (!active()) return;
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    stop_requested_ = true;
  }
  poll_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  active_.store(false, std::memory_order_relaxed);
  armed_epoch_.store(-1, std::memory_order_relaxed);
}

void Watchdog::ArmEpoch(int64_t epoch_index) {
  if (!active()) return;
  armed_at_ns_.store(Tracer::Get().NowNs(), std::memory_order_relaxed);
  fired_this_epoch_.store(false, std::memory_order_relaxed);
  // Epoch index last: the poll thread keys off it, so the timestamp and
  // latch must already be in place when it becomes visible.
  armed_epoch_.store(epoch_index, std::memory_order_release);
}

void Watchdog::DisarmEpoch() {
  if (!active()) return;
  armed_epoch_.store(-1, std::memory_order_relaxed);
}

bool Watchdog::Poll() {
  const int64_t epoch = armed_epoch_.load(std::memory_order_acquire);
  if (epoch < 0) return false;
  if (fired_this_epoch_.load(std::memory_order_relaxed)) return false;
  const int64_t now_ns = Tracer::Get().NowNs();
  const int64_t armed_ns = armed_at_ns_.load(std::memory_order_relaxed);
  const double elapsed = static_cast<double>(now_ns - armed_ns) * 1e-9;
  if (elapsed <= config_.deadline_seconds * config_.multiple) return false;
  // Fire-once latch per armed epoch; exchange keeps a test's manual
  // Poll racing the background thread to a single dump.
  if (fired_this_epoch_.exchange(true, std::memory_order_relaxed)) {
    return false;
  }
  Fire(epoch, elapsed);
  return true;
}

bool Watchdog::PollForTesting() { return Poll(); }

void Watchdog::Fire(int64_t epoch_index, double elapsed_seconds) {
  std::ostringstream dump;
  dump << "watchdog: epoch " << epoch_index << " running "
       << elapsed_seconds << " s (deadline " << config_.deadline_seconds
       << " s x " << config_.multiple << "); in-flight spans:\n";
  Tracer::Get().DumpOpenSpans(dump);
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    last_dump_ = dump.str();
  }
  fire_count_.fetch_add(1, std::memory_order_relaxed);
  MQA_LOG(Warning) << dump.str();
}

std::string Watchdog::last_dump_for_testing() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return last_dump_;
}

void Watchdog::InitFromEnv() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  const char* value = std::getenv("MQA_WATCHDOG");
  if (value == nullptr || value[0] == '\0') return;
  WatchdogConfig config;
  char* end = nullptr;
  config.deadline_seconds = std::strtod(value, &end);
  if (end == value || config.deadline_seconds <= 0.0) {
    MQA_LOG(Warning) << "MQA_WATCHDOG: cannot parse '" << value
                     << "' (want seconds[,multiple]); watchdog off";
    return;
  }
  if (*end == ',') {
    const double multiple = std::strtod(end + 1, nullptr);
    if (multiple > 0.0) config.multiple = multiple;
  }
  // The flight recorder reads the tracer's open-span stacks; spans only
  // exist while the tracer collects.
  Tracer::Get().Enable();
  Get().Start(config);
}

}  // namespace mqa

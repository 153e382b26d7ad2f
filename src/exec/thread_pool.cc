#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace mqa {

// Shared state of one ParallelFor call. Held by shared_ptr: the caller
// returns as soon as `done == n`, which can be before a queued helper
// task ever *started* — such a stragglers' Drain must still be safe to
// run (it claims a cursor past n and exits without touching `fn`).
struct ThreadPool::ForState {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t n = 0;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t done = 0;  // guarded by mu

  // Claims and runs items until the cursor passes n, recording completed
  // items in bulk to keep the mutex off the per-item path.
  void Drain() {
    int64_t completed = 0;
    for (int64_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      ++completed;
    }
    if (completed == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += completed;
    if (done == n) done_cv.notify_all();
  }
};

ThreadPool::ThreadPool(int num_threads) {
  const int spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(static_cast<size_t>(spawned));
  for (int t = 0; t < spawned; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  // Label this thread's track in trace exports (worker 0 is the first
  // *spawned* thread; the calling thread participates under its own name).
  Tracer::Get().SetCurrentThreadName("worker-" +
                                     std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    MQA_TRACE_SPAN("exec/task");
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;

  // One helper per worker (capped by the item count); each loops over the
  // shared cursor, so helpers that start late or never start cost
  // nothing. The caller drains too, which guarantees completion even when
  // every worker is busy with other (possibly nested) ParallelFor calls.
  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(workers_.size()), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t t = 0; t < helpers; ++t) {
      queue_.emplace_back([state] { state->Drain(); });
    }
  }
  queue_cv_.notify_all();

  state->Drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->done == state->n; });
}

}  // namespace mqa

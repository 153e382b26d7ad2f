// Thread-scaling of the parallel execution subsystem at 10k x 10k (the
// "city" regime of bench/index_bench.cc: velocity 0.02-0.03, deadline
// 1-2, hyperlocal reach): pair-pool construction, greedy end-to-end,
// and divide-and-conquer end-to-end at 1/2/4/8 threads, reporting
// speedup over the sequential path. Every parallel run is checked to
// produce the exact sequential result — the bench doubles as a larger
// determinism test.
//
// The instance carries no task index, so every BuildPairPool call builds
// one on the calling thread before the worker ranges scan it in
// parallel; the simulator instead hands the builder the index its
// epoch/index phase loaded, so pool_s here includes a serial index
// build that simulator epochs time outside the pool build.
//
// Results are hardware-dependent: meaningful speedups need as many real
// cores as threads (the acceptance target is >= 2x at 4 threads on a
// >= 4-core machine; hardware_concurrency is printed for context).
//
// MQA_PARALLEL_BENCH_N overrides the instance size (default 10000).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/divide_conquer.h"
#include "core/greedy.h"
#include "core/valid_pairs.h"
#include "exec/parallel_runner.h"
#include "bench/bench_util.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

// City-regime instance: n current workers/tasks plus n/10 predicted of
// each, so the build's sequential Case 1-3 statistics replay is timed too.
ProblemInstance CityInstance(int n, const QualityModel* quality, Rng* rng) {
  const int pred = n / 10;
  std::vector<Worker> workers;
  workers.reserve(static_cast<size_t>(n + pred));
  for (int i = 0; i < n; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.02, 0.03)));
  }
  for (int i = 0; i < pred; ++i) {
    workers.push_back(MakePredictedWorker(
        n + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()}, 0.02, 0.02),
        rng->Uniform(0.02, 0.03)));
  }
  std::vector<Task> tasks;
  tasks.reserve(static_cast<size_t>(n + pred));
  for (int j = 0; j < n; ++j) {
    tasks.push_back(
        MakeTask(j, rng->Uniform(), rng->Uniform(), rng->Uniform(1.0, 2.0)));
  }
  for (int j = 0; j < pred; ++j) {
    tasks.push_back(MakePredictedTask(
        n + j, BBox::KernelBox({rng->Uniform(), rng->Uniform()}, 0.02, 0.02),
        rng->Uniform(1.0, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(n),
                         std::move(tasks), static_cast<size_t>(n), quality,
                         /*unit_price=*/10.0, /*budget=*/300.0);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measured {
  double pool_s = 0.0;
  double greedy_s = 0.0;  // end-to-end RunGreedy (pool + selection)
  double dc_s = 0.0;      // end-to-end RunDivideConquer
  size_t num_pairs = 0;
  double greedy_quality = 0.0;
  double dc_quality = 0.0;
};

Measured MeasureAt(const ProblemInstance& base, int threads, int reps) {
  ParallelRunner runner(threads);
  ProblemInstance instance = base;
  instance.set_thread_pool(runner.pool());

  Measured m;
  m.pool_s = 1e100;
  m.greedy_s = 1e100;
  m.dc_s = 1e100;
  for (int r = 0; r < reps; ++r) {
    double t0 = Now();
    const PairPool pool = BuildPairPool(instance);
    m.pool_s = std::min(m.pool_s, Now() - t0);
    m.num_pairs = pool.size();

    t0 = Now();
    const AssignmentResult greedy = RunGreedy(instance, /*delta=*/0.5);
    m.greedy_s = std::min(m.greedy_s, Now() - t0);
    m.greedy_quality = greedy.total_quality;

    t0 = Now();
    const AssignmentResult dc = RunDivideConquer(instance, /*delta=*/0.5);
    m.dc_s = std::min(m.dc_s, Now() - t0);
    m.dc_quality = dc.total_quality;
  }
  return m;
}

}  // namespace
}  // namespace mqa

int main() {
  using namespace mqa;
  bench::InitObservability();

  int n = 10000;
  if (const char* env = std::getenv("MQA_PARALLEL_BENCH_N")) {
    n = std::atoi(env);
    if (n <= 0) n = 10000;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "parallel_bench: n=%d (city regime, +%d predicted each side), "
      "hardware_concurrency=%u\n",
      n, n / 10, cores);
  if (cores < 4) {
    std::printf(
        "NOTE: fewer than 4 hardware threads — speedups below are not "
        "meaningful on this machine.\n");
  }

  const RangeQualityModel quality(1.0, 2.0);
  Rng rng(42);
  const ProblemInstance instance = CityInstance(n, &quality, &rng);

  const int reps = n <= 10000 ? 3 : 1;
  const Measured base = MeasureAt(instance, 1, reps);
  std::printf("%8s %12s %10s %12s %10s %12s %10s %12s\n", "threads",
              "pool_s", "speedup", "greedy_s", "speedup", "dc_s", "speedup",
              "pairs");
  std::printf("%8d %12.4f %10s %12.4f %10s %12.4f %10s %12zu\n", 1,
              base.pool_s, "1.00x", base.greedy_s, "1.00x", base.dc_s,
              "1.00x", base.num_pairs);

  for (const int threads : {2, 4, 8}) {
    const Measured m = MeasureAt(instance, threads, reps);
    // The determinism contract, enforced: byte-identical pair counts and
    // total qualities at every thread count.
    if (m.num_pairs != base.num_pairs ||
        m.greedy_quality != base.greedy_quality ||
        m.dc_quality != base.dc_quality) {
      std::fprintf(stderr,
                   "FATAL: results diverged at %d threads "
                   "(pairs %zu vs %zu, greedy %.17g vs %.17g, "
                   "dc %.17g vs %.17g)\n",
                   threads, m.num_pairs, base.num_pairs, m.greedy_quality,
                   base.greedy_quality, m.dc_quality, base.dc_quality);
      return 1;
    }
    std::printf("%8d %12.4f %9.2fx %12.4f %9.2fx %12.4f %9.2fx %12zu\n",
                threads, m.pool_s, base.pool_s / m.pool_s, m.greedy_s,
                base.greedy_s / m.greedy_s, m.dc_s, base.dc_s / m.dc_s,
                m.num_pairs);
  }
  return 0;
}

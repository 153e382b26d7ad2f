// Unit tests for the parallel execution subsystem (src/exec/): ThreadPool
// scheduling and the ParallelRunner owner.

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"

namespace mqa {
namespace {

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kN, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "item " << i;
    }
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](int64_t) { FAIL() << "no items to run"; });
  int hits = 0;
  pool.ParallelFor(1, [&](int64_t) { ++hits; });  // runs inline
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // The D&C recursion nests ParallelFor inside pool tasks; the caller
  // drains its own items, so this must terminate even with one worker.
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> total{0};
    pool.ParallelFor(8, [&](int64_t) {
      pool.ParallelFor(8, [&](int64_t) { total++; });
    });
    EXPECT_EQ(total.load(), 64);
  }
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 100 * 99 / 2);
  }
}

TEST(ParallelRunnerTest, SequentialRunnerHasNoPool) {
  const ParallelRunner seq(1);
  EXPECT_EQ(seq.pool(), nullptr);
  EXPECT_EQ(seq.num_threads(), 1);

  const ParallelRunner par(4);
  ASSERT_NE(par.pool(), nullptr);
  EXPECT_EQ(par.num_threads(), 4);
}

}  // namespace
}  // namespace mqa

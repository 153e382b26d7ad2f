// WorkerIndexCache: one cache reloaded every epoch must answer exactly
// like the reachability definition evaluated by brute force over the same
// pool: the velocity-in-the-bound-slot convention answers the
// task-centric reachability question exactly.

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/worker_index_cache.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakeWorker;

std::set<int64_t> ReachableWorkers(const SpatialIndex& index, const BBox& box,
                                   double deadline) {
  std::set<int64_t> ids;
  index.QueryReachable(box, /*velocity=*/deadline,
                       /*max_deadline=*/std::numeric_limits<double>::infinity(),
                       [&](int64_t id, const BBox&, double) { ids.insert(id); });
  return ids;
}

TEST(WorkerIndexCacheTest, ReachabilityMatchesDefinition) {
  std::vector<Worker> workers = {
      MakeWorker(0, 0.10, 0.10, 0.30),  // reach 0.3 per unit deadline
      MakeWorker(1, 0.90, 0.90, 0.05),  // slow
      MakeWorker(2, 0.50, 0.50, 0.00),  // immobile
  };
  WorkerIndexCache cache;
  cache.BeginInstance(workers);

  const BBox near_w0 = BBox::FromPoint({0.25, 0.10});  // distance 0.15 to w0
  // Deadline 1.0: only w0 (0.15 <= 0.3); w1 is ~1.06 away at reach 0.05.
  EXPECT_EQ(ReachableWorkers(*cache.view(), near_w0, 1.0),
            (std::set<int64_t>{0}));
  // Deadline 0.4: 0.3 * 0.4 = 0.12 < 0.15 — nobody reaches.
  EXPECT_TRUE(ReachableWorkers(*cache.view(), near_w0, 0.4).empty());
  // A task at the immobile worker's exact location is reachable by it
  // (distance 0 <= 0), and by nobody else: w0 is ~0.57 away at reach 0.3.
  EXPECT_EQ(ReachableWorkers(*cache.view(), BBox::FromPoint({0.5, 0.5}), 1.0),
            (std::set<int64_t>{2}));
}

TEST(WorkerIndexCacheTest, ReloadedEveryEpochMatchesBruteForce) {
  Rng rng(321);
  // The live pool, evolving by churn: arrivals join, a random subset
  // departs, survivors keep their identity and position. One cache is
  // reloaded with it every epoch.
  std::vector<Worker> pool;
  int64_t next_id = 0;
  WorkerIndexCache cache;

  for (int epoch = 0; epoch < 25; ++epoch) {
    // Departures: each pooled worker leaves with probability 0.3.
    std::vector<Worker> survivors;
    for (const Worker& w : pool) {
      if (!rng.Bernoulli(0.3)) survivors.push_back(w);
    }
    pool = std::move(survivors);
    // Arrivals.
    const int64_t arrivals = rng.UniformInt(0, 40);
    for (int64_t k = 0; k < arrivals; ++k) {
      pool.push_back(MakeWorker(next_id++, rng.Uniform(), rng.Uniform(),
                                rng.Uniform(0.05, 0.5)));
    }

    cache.BeginInstance(pool);
    ASSERT_EQ(cache.view()->size(), pool.size());

    for (int q = 0; q < 10; ++q) {
      const BBox query = BBox::FromPoint({rng.Uniform(), rng.Uniform()});
      const double deadline = rng.Uniform(0.0, 2.5);
      const auto reloaded = ReachableWorkers(*cache.view(), query, deadline);
      // The definition evaluated by brute force, with the same id
      // convention (position in the pool vector).
      std::set<int64_t> expected;
      for (size_t i = 0; i < pool.size(); ++i) {
        const double dist = pool[i].location.MinDistance(query);
        if (dist <= pool[i].velocity * deadline) {
          expected.insert(static_cast<int64_t>(i));
        }
      }
      ASSERT_EQ(reloaded, expected)
          << "epoch " << epoch << " query " << q << " wrong vs definition";
    }
  }
}

TEST(WorkerIndexCacheTest, MaxWorkerVelocityHelper) {
  EXPECT_EQ(MaxWorkerVelocity({}), 0.0);
  EXPECT_EQ(MaxWorkerVelocity({MakeWorker(0, 0.1, 0.1, 0.3),
                               MakeWorker(1, 0.2, 0.2, 0.7),
                               MakeWorker(2, 0.3, 0.3, 0.2)}),
            0.7);
}

}  // namespace
}  // namespace mqa

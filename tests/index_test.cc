// QueryReachable semantics, one typed suite over both SpatialIndex
// implementations — BruteForceIndex (the reference) and RTreeIndex (the
// production index): boundary behavior (inclusive radius, zero radius,
// entries on the quarter lines, entries outside the unit square),
// one large box visited once, per-entry deadline filtering, repeated
// BulkLoads, and randomized raw queries checked against the definition on
// uniform, Zipf and Gaussian-cluster entry sets. The simulator's task
// index cache is pinned to the R-tree.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force_index.h"
#include "index/rtree_index.h"
#include "index/task_index_cache.h"
#include "workload/spatial_dist.h"

namespace mqa {
namespace {

std::vector<int64_t> CollectReachable(const SpatialIndex& index,
                                      const BBox& query, double velocity,
                                      double max_deadline) {
  std::vector<int64_t> ids;
  index.QueryReachable(query, velocity, max_deadline,
                       [&](int64_t id, const BBox& box, double min_dist) {
                         // The reported distance must be the exact
                         // min-distance, not a bound.
                         EXPECT_EQ(min_dist, query.MinDistance(box));
                         ids.push_back(id);
                       });
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A plain radius query: velocity 1 and max_deadline = radius over
/// entries with the default (infinite) deadline.
std::vector<int64_t> CollectWithin(const SpatialIndex& index, const BBox& query,
                                   double radius) {
  return CollectReachable(index, query, 1.0, radius);
}

/// The QueryReachable definition evaluated entry by entry.
std::vector<int64_t> ReachableByDefinition(
    const std::vector<IndexEntry>& entries, const BBox& query,
    double velocity, double max_deadline) {
  std::vector<int64_t> ids;
  for (const IndexEntry& e : entries) {
    if (query.MinDistance(e.box) <=
        velocity * std::min(e.deadline, max_deadline)) {
      ids.push_back(e.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Entry sets with a location distribution, mixed point/kernel boxes and
/// mixed finite/infinite deadlines — the shapes the simulator feeds in.
std::vector<IndexEntry> SampleEntries(const SpatialDistConfig& dist, int n,
                                      Rng* rng) {
  std::vector<IndexEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    const Point c = SampleLocation(dist, rng);
    const BBox box = rng->Bernoulli(0.3)
                         ? BBox::KernelBox(c, rng->Uniform(0.0, 0.2),
                                           rng->Uniform(0.0, 0.2))
                         : BBox::FromPoint(c);
    if (rng->Bernoulli(0.8)) {
      entries.push_back({id, box, rng->Uniform(0.05, 2.0)});
    } else {
      entries.push_back({id, box});
    }
  }
  return entries;
}

template <typename Index>
class SpatialIndexTest : public ::testing::Test {};

using Indexes = ::testing::Types<BruteForceIndex, RTreeIndex>;
TYPED_TEST_SUITE(SpatialIndexTest, Indexes);

TYPED_TEST(SpatialIndexTest, EmptyIndexReturnsNothing) {
  TypeParam index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 10.0).empty());
  // BulkLoad of nothing is a legal reset.
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.5})}});
  index.BulkLoad({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectReachable(index, BBox::FromPoint({0.5, 0.5}), 1.0, 10.0)
                  .empty());
}

TYPED_TEST(SpatialIndexTest, ZeroRadiusIsInclusive) {
  TypeParam index;
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.5})},
                  {2, BBox::FromPoint({0.5 + 1e-9, 0.5})}});
  // Radius 0 selects only entries at distance exactly 0.
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.0),
            (std::vector<int64_t>{1}));
  // A box touching the query point also has min-distance 0.
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.5})},
                  {2, BBox::FromPoint({0.5 + 1e-9, 0.5})},
                  {3, BBox({0.4, 0.4}, {0.5, 0.5})}});
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.0),
            (std::vector<int64_t>{1, 3}));
}

TYPED_TEST(SpatialIndexTest, RadiusBoundaryIsInclusive) {
  TypeParam index;
  index.BulkLoad({{7, BBox::FromPoint({0.25, 0.5})}});
  const BBox query = BBox::FromPoint({0.75, 0.5});
  EXPECT_EQ(CollectWithin(index, query, 0.5), (std::vector<int64_t>{7}));
  EXPECT_TRUE(CollectWithin(index, query, 0.5 - 1e-9).empty());
}

TYPED_TEST(SpatialIndexTest, PointsOnCellEdges) {
  // Entries exactly on the quarter lines (0.25, 0.5, 0.75) must be found
  // from queries on either side.
  TypeParam index;
  index.BulkLoad({{1, BBox::FromPoint({0.25, 0.25})},
                  {2, BBox::FromPoint({0.5, 0.5})},
                  {3, BBox::FromPoint({0.75, 0.75})}});
  for (int64_t id = 1; id <= 3; ++id) {
    const double c = 0.25 * static_cast<double>(id);
    // Query from the lower-left side of the edge.
    EXPECT_EQ(CollectWithin(index, BBox::FromPoint({c - 0.01, c - 0.01}),
                            0.05),
              (std::vector<int64_t>{id}))
        << "edge " << c;
    // And from the upper-right side.
    EXPECT_EQ(CollectWithin(index, BBox::FromPoint({c + 0.01, c + 0.01}),
                            0.05),
              (std::vector<int64_t>{id}))
        << "edge " << c;
  }
}

TYPED_TEST(SpatialIndexTest, MultiCellBoxReportedOnce) {
  // A box spanning most of the space, among small neighbors: queries that
  // overlap it over a large area must still visit it exactly once.
  TypeParam index;
  std::vector<IndexEntry> entries = {{42, BBox({0.1, 0.1}, {0.9, 0.9})}};
  for (int64_t id = 0; id < 40; ++id) {
    const double t = 0.025 * static_cast<double>(id);
    entries.push_back({id, BBox::FromPoint({t, 1.0 - t})});
  }
  index.BulkLoad(entries);
  for (const BBox& query :
       {BBox({0.0, 0.0}, {1.0, 1.0}), BBox({0.2, 0.2}, {0.8, 0.8})}) {
    int visits = 0;
    index.QueryReachable(query, 1.0, 0.5,
                         [&](int64_t id, const BBox&, double) {
                           if (id == 42) ++visits;
                         });
    EXPECT_EQ(visits, 1);
  }
}

TYPED_TEST(SpatialIndexTest, EntitiesOutsideUnitSquareAreFound) {
  TypeParam index;
  index.BulkLoad({{1, BBox::FromPoint({1.4, 0.5})},
                  {2, BBox::FromPoint({-0.3, -0.2})}});
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.9, 0.5}), 0.5),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.0, 0.0}), 0.4),
            (std::vector<int64_t>{2}));
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.2).empty());
}

TYPED_TEST(SpatialIndexTest, AllPointsIdentical) {
  // Every entry shares one location: the R-tree's packing sees nothing
  // but ties, and every entry must still be found once.
  TypeParam index;
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 300; ++id) {
    entries.push_back({id, BBox::FromPoint({0.5, 0.5}), 1.0});
  }
  index.BulkLoad(entries);
  EXPECT_EQ(index.size(), 300u);
  const std::vector<int64_t> all =
      CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.0);
  ASSERT_EQ(all.size(), 300u);
  for (int64_t id = 0; id < 300; ++id) {
    EXPECT_EQ(all[static_cast<size_t>(id)], id);
  }
}

TYPED_TEST(SpatialIndexTest, RepeatedBulkLoadReplacesContents) {
  TypeParam index;
  Rng rng(7);
  std::vector<IndexEntry> large;
  for (int64_t id = 0; id < 2000; ++id) {
    large.push_back({id, BBox::FromPoint({rng.Uniform(), rng.Uniform()})});
  }
  const BBox everywhere({0, 0}, {1, 1});

  index.BulkLoad({{1, BBox::FromPoint({0.1, 0.1})},
                  {2, BBox({0.2, 0.2}, {0.8, 0.8})}});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(CollectWithin(index, everywhere, 1.0),
            (std::vector<int64_t>{1, 2}));

  index.BulkLoad(large);
  EXPECT_EQ(index.size(), 2000u);
  const BBox query = BBox::FromPoint({0.4, 0.6});
  EXPECT_EQ(CollectWithin(index, query, 0.15),
            ReachableByDefinition(large, query, 1.0, 0.15));

  index.BulkLoad({{5, BBox::FromPoint({0.5, 0.5})}});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(CollectWithin(index, everywhere, 1.0),
            (std::vector<int64_t>{5}));
}

TYPED_TEST(SpatialIndexTest, FiltersByPerEntryDeadline) {
  // Worker at the origin with velocity 1: a task at distance 0.5 is
  // reachable only when its deadline is >= 0.5.
  TypeParam index;
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.0}), /*deadline=*/1.0},
                  {2, BBox::FromPoint({0.5, 0.0}), /*deadline=*/0.2},
                  {3, BBox::FromPoint({0.9, 0.0}), /*deadline=*/0.95}});
  const BBox query = BBox::FromPoint({0.0, 0.0});
  // max_deadline 1.0 bounds the search radius at velocity 1.
  EXPECT_EQ(CollectReachable(index, query, 1.0, 1.0),
            (std::vector<int64_t>{1, 3}));
  // A slower worker loses the far entry, then the near one.
  EXPECT_EQ(CollectReachable(index, query, 0.6, 1.0),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(CollectReachable(index, query, 0.1, 1.0),
            (std::vector<int64_t>{}));
}

TYPED_TEST(SpatialIndexTest, DefaultDeadlineNeverPrunes) {
  // Entries without deadlines (infinity) must behave exactly like a plain
  // radius query — including at velocity 0 (NaN product) and with
  // negative velocities (degrade to 0), at the subtree-pruning level too.
  TypeParam index;
  index.BulkLoad({{1, BBox::FromPoint({0.3, 0.3})},
                  {2, BBox({0.2, 0.2}, {0.8, 0.8})}});
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.3, 0.3}), 0.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.3, 0.3}), -1.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  // Radius 0.5: reaches the point at min-dist ~0.42 and the box at ~0.28.
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.0, 0.0}), 1.0, 0.5),
            (std::vector<int64_t>{1, 2}));
  // Radius 0.3: only the box stays in range.
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.0, 0.0}), 1.0, 0.3),
            (std::vector<int64_t>{2}));
}

TYPED_TEST(SpatialIndexTest, MatchesDefinitionOnRandomQueries) {
  SpatialDistConfig zipf;
  zipf.kind = SpatialDistribution::kZipf;
  zipf.zipf_skew = 0.9;
  SpatialDistConfig cluster;
  cluster.kind = SpatialDistribution::kGaussian;
  cluster.gaussian_sigma = 0.05;
  const struct {
    const char* name;
    SpatialDistConfig dist;
  } regimes[] = {{"uniform", {}}, {"zipf", zipf}, {"cluster", cluster}};

  Rng rng(321);
  for (const auto& regime : regimes) {
    const std::vector<IndexEntry> entries =
        SampleEntries(regime.dist, 500, &rng);
    TypeParam index;
    index.BulkLoad(entries);
    for (int q = 0; q < 200; ++q) {
      const BBox query =
          q % 2 == 0 ? BBox::FromPoint({rng.Uniform(-0.2, 1.2),
                                        rng.Uniform(-0.2, 1.2)})
                     : BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                                       rng.Uniform(0.0, 0.3),
                                       rng.Uniform(0.0, 0.3));
      const double velocity = rng.Uniform(0.0, 0.6);
      const double max_deadline = rng.Uniform(0.05, 2.5);
      EXPECT_EQ(CollectReachable(index, query, velocity, max_deadline),
                ReachableByDefinition(entries, query, velocity, max_deadline))
          << regime.name << " q=" << q;
    }
  }
}

TEST(IndexDefaultTest, SimulatorIndexesAreRTrees) {
  EXPECT_STREQ(TaskIndexCache().view()->name(), "RTREE");
}

}  // namespace
}  // namespace mqa

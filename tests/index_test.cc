// Unit tests for the spatial-index subsystem: QueryReachable boundary
// behavior (cell edges, zero radius, empty index), multi-cell dedup,
// per-entry deadline filtering, repeated BulkLoads, and randomized
// grid-vs-brute cross-checks at the raw query level.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/spatial_index.h"

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

TEST(GridIndexTest, EmptyIndexReturnsNothing) {
  GridIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 10.0).empty());
  index.BulkLoad({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 10.0).empty());
}

TEST(GridIndexTest, ZeroRadiusIsInclusive) {
  GridIndex index(8);
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

TEST(GridIndexTest, PointsOnCellEdges) {
  // 4x4 grid: interior edges at 0.25, 0.5, 0.75. Entries exactly on an
  // edge must be found from queries on either side.
  GridIndex index(4);
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

TEST(GridIndexTest, RadiusBoundaryIsInclusive) {
  GridIndex index(8);
  index.BulkLoad({{7, BBox::FromPoint({0.25, 0.5})}});
  const BBox query = BBox::FromPoint({0.75, 0.5});
  EXPECT_EQ(CollectWithin(index, query, 0.5), (std::vector<int64_t>{7}));
  EXPECT_TRUE(CollectWithin(index, query, 0.5 - 1e-9).empty());
}

TEST(GridIndexTest, MultiCellBoxReportedOnce) {
  // A box spanning many cells is bucketed into each; queries overlapping
  // several of those cells must still visit it exactly once.
  GridIndex index(8);
  index.BulkLoad({{42, BBox({0.1, 0.1}, {0.9, 0.9})}});
  for (const BBox& query :
       {BBox({0.0, 0.0}, {1.0, 1.0}), BBox({0.2, 0.2}, {0.8, 0.8})}) {
    int visits = 0;
    index.QueryReachable(query, 1.0, 0.5,
                         [&](int64_t id, const BBox&, double) {
                           EXPECT_EQ(id, 42);
                           ++visits;
                         });
    EXPECT_EQ(visits, 1);
  }
}

TEST(GridIndexTest, EntitiesOutsideUnitSquareAreFound) {
  GridIndex index(8);
  index.BulkLoad({{1, BBox::FromPoint({1.4, 0.5})},
                  {2, BBox::FromPoint({-0.3, -0.2})}});
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.9, 0.5}), 0.5),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.0, 0.0}), 0.4),
            (std::vector<int64_t>{2}));
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.2).empty());
}

TEST(GridIndexTest, AllPointsIdentical) {
  GridIndex index;
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 300; ++id) {
    entries.push_back({id, BBox::FromPoint({0.5, 0.5}), 1.0});
  }
  index.BulkLoad(entries);
  const std::vector<int64_t> all =
      CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.0);
  ASSERT_EQ(all.size(), 300u);
  for (int64_t id = 0; id < 300; ++id) {
    EXPECT_EQ(all[static_cast<size_t>(id)], id);
  }
}

TEST(GridIndexTest, RepeatedBulkLoadReplacesContents) {
  // Each load replaces the previous contents and, with auto resolution,
  // re-picks ~sqrt(n) cells per side for the new entry count.
  GridIndex index;
  Rng rng(7);
  std::vector<IndexEntry> large;
  for (int64_t id = 0; id < 2000; ++id) {
    large.push_back({id, BBox::FromPoint({rng.Uniform(), rng.Uniform()})});
  }
  const std::vector<IndexEntry> small = {
      {1, BBox::FromPoint({0.1, 0.1})},
      {2, BBox({0.2, 0.2}, {0.8, 0.8})}};
  const BBox everywhere({0, 0}, {1, 1});

  index.BulkLoad(small);
  EXPECT_EQ(index.size(), 2u);
  const int small_side = index.cells_per_side();
  EXPECT_EQ(CollectWithin(index, everywhere, 1.0),
            (std::vector<int64_t>{1, 2}));

  index.BulkLoad(large);
  EXPECT_EQ(index.size(), 2000u);
  const int large_side = index.cells_per_side();
  EXPECT_GT(large_side, small_side);
  BruteForceIndex brute;
  brute.BulkLoad(large);
  const BBox query = BBox::FromPoint({0.4, 0.6});
  EXPECT_EQ(CollectWithin(index, query, 0.15),
            CollectWithin(brute, query, 0.15));

  index.BulkLoad({{5, BBox::FromPoint({0.5, 0.5})}});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_LT(index.cells_per_side(), large_side);
  EXPECT_EQ(CollectWithin(index, everywhere, 1.0),
            (std::vector<int64_t>{5}));

  // A fixed resolution survives every load.
  GridIndex fixed(4);
  fixed.BulkLoad(large);
  fixed.BulkLoad(small);
  EXPECT_EQ(fixed.cells_per_side(), 4);
  EXPECT_EQ(CollectWithin(fixed, everywhere, 1.0),
            (std::vector<int64_t>{1, 2}));
}

TEST(GridIndexTest, MatchesBruteForceOnRandomQueries) {
  Rng rng(123);
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 500; ++id) {
    if (rng.Bernoulli(0.3)) {
      // Kernel boxes like predicted entities.
      const Point c{rng.Uniform(), rng.Uniform()};
      entries.push_back(
          {id, BBox::KernelBox(c, rng.Uniform(0.0, 0.2),
                               rng.Uniform(0.0, 0.2))});
    } else {
      entries.push_back({id, BBox::FromPoint({rng.Uniform(), rng.Uniform()})});
    }
  }
  for (const int side : {0, 1, 3, 16, 100}) {
    GridIndex grid(side);
    grid.BulkLoad(entries);
    BruteForceIndex brute;
    brute.BulkLoad(entries);
    for (int q = 0; q < 200; ++q) {
      const BBox query =
          q % 2 == 0
              ? BBox::FromPoint({rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)})
              : BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                                rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3));
      const double radius = rng.Uniform(0.0, 0.4);
      EXPECT_EQ(CollectWithin(grid, query, radius),
                CollectWithin(brute, query, radius))
          << "side=" << side << " q=" << q;
    }
  }
}

TEST(QueryReachableTest, FiltersByPerEntryDeadline) {
  // Worker at the origin with velocity 1: a task at distance 0.5 is
  // reachable only when its deadline is >= 0.5.
  for (const int side : {0, 4}) {
    GridIndex grid(side);
    grid.BulkLoad({{1, BBox::FromPoint({0.5, 0.0}), /*deadline=*/1.0},
                   {2, BBox::FromPoint({0.5, 0.0}), /*deadline=*/0.2},
                   {3, BBox::FromPoint({0.9, 0.0}), /*deadline=*/0.95}});
    const BBox query = BBox::FromPoint({0.0, 0.0});
    // max_deadline 1.0 bounds the search radius at velocity 1.
    EXPECT_EQ(CollectReachable(grid, query, 1.0, 1.0),
              (std::vector<int64_t>{1, 3}));
    // A slower worker loses the far entry, then the near one.
    EXPECT_EQ(CollectReachable(grid, query, 0.6, 1.0),
              (std::vector<int64_t>{1}));
    EXPECT_EQ(CollectReachable(grid, query, 0.1, 1.0),
              (std::vector<int64_t>{}));
  }
}

TEST(QueryReachableTest, DefaultDeadlineNeverPrunes) {
  // Entries without deadlines (infinity) must behave exactly like a plain
  // radius query — including at velocity 0 (NaN product) and with
  // negative velocities (degrade to 0).
  GridIndex grid(5);
  grid.BulkLoad({{1, BBox::FromPoint({0.3, 0.3})},
                 {2, BBox({0.2, 0.2}, {0.8, 0.8})}});
  EXPECT_EQ(CollectReachable(grid, BBox::FromPoint({0.3, 0.3}), 0.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(CollectReachable(grid, BBox::FromPoint({0.3, 0.3}), -1.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  // Radius 0.5: reaches the point at min-dist ~0.42 and the box at ~0.28.
  EXPECT_EQ(CollectReachable(grid, BBox::FromPoint({0.0, 0.0}), 1.0, 0.5),
            (std::vector<int64_t>{1, 2}));
  // Radius 0.3: only the box stays in range.
  EXPECT_EQ(CollectReachable(grid, BBox::FromPoint({0.0, 0.0}), 1.0, 0.3),
            (std::vector<int64_t>{2}));
}

TEST(QueryReachableTest, GridMatchesBruteForceOnRandomQueries) {
  Rng rng(321);
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 400; ++id) {
    const bool kernel = rng.Bernoulli(0.3);
    const BBox box =
        kernel ? BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                                 rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2))
               : BBox::FromPoint({rng.Uniform(), rng.Uniform()});
    // Mix finite deadlines with the infinite default.
    if (rng.Bernoulli(0.8)) {
      entries.push_back({id, box, rng.Uniform(0.05, 2.0)});
    } else {
      entries.push_back({id, box});
    }
  }
  for (const int side : {0, 1, 3, 16, 100}) {
    GridIndex grid(side);
    grid.BulkLoad(entries);
    BruteForceIndex brute;
    brute.BulkLoad(entries);
    for (int q = 0; q < 200; ++q) {
      const BBox query =
          q % 2 == 0
              ? BBox::FromPoint({rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)})
              : BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                                rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3));
      const double velocity = rng.Uniform(0.0, 0.6);
      const double max_deadline = rng.Uniform(0.05, 2.5);
      EXPECT_EQ(CollectReachable(grid, query, velocity, max_deadline),
                CollectReachable(brute, query, velocity, max_deadline))
          << "side=" << side << " q=" << q;
      // And exactly the definition.
      EXPECT_EQ(CollectReachable(grid, query, velocity, max_deadline),
                ReachableByDefinition(entries, query, velocity, max_deadline))
          << "side=" << side << " q=" << q;
    }
  }
}

TEST(SpatialIndexTest, FactoryAndResolve) {
  EXPECT_EQ(ResolveBackend(IndexBackend::kGrid, 1, 1), IndexBackend::kGrid);
  EXPECT_EQ(ResolveBackend(IndexBackend::kBruteForce, 100000, 100000),
            IndexBackend::kBruteForce);
  EXPECT_EQ(ResolveBackend(IndexBackend::kAuto, 10, 10),
            IndexBackend::kBruteForce);
  EXPECT_EQ(ResolveBackend(IndexBackend::kAuto, 1000, 1000),
            IndexBackend::kGrid);

  EXPECT_STREQ(CreateSpatialIndex(IndexBackend::kGrid)->name(), "GRID");
  EXPECT_STREQ(CreateSpatialIndex(IndexBackend::kBruteForce)->name(), "BRUTE");
  EXPECT_STREQ(
      CreateSpatialIndex(ResolveBackend(IndexBackend::kAuto, 10, 10))->name(),
      "BRUTE");
  EXPECT_STREQ(CreateSpatialIndex(ResolveBackend(IndexBackend::kAuto, 1000,
                                                 1000))
                   ->name(),
               "GRID");
}

}  // namespace
}  // namespace mqa

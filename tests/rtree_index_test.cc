// Unit tests for the packed R-tree backend: query semantics
// cross-checked against BruteForceIndex on uniform / Zipf /
// Gaussian-cluster point sets, degenerate inputs (empty tree, single
// entry, all points identical), repeated BulkLoads into the retained
// arena (height, fan-out clamp), and deadline-aware QueryReachable
// pruning.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force_index.h"
#include "index/rtree_index.h"
#include "index/spatial_index.h"
#include "workload/spatial_dist.h"

namespace mqa {
namespace {

std::vector<int64_t> CollectReachable(const SpatialIndex& index,
                                      const BBox& query, double velocity,
                                      double max_deadline) {
  std::vector<int64_t> ids;
  index.QueryReachable(query, velocity, max_deadline,
                       [&](int64_t id, const BBox& box, double min_dist) {
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

/// Point sets with a location distribution, mixed point/kernel boxes and
/// mixed finite/infinite deadlines — the shapes the simulator feeds in.
std::vector<IndexEntry> SampleEntries(const SpatialDistConfig& dist, int n,
                                      Rng* rng) {
  std::vector<IndexEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    const Point c = SampleLocation(dist, rng);
    const BBox box = rng->Bernoulli(0.3)
                         ? BBox::KernelBox(c, rng->Uniform(0.0, 0.1),
                                           rng->Uniform(0.0, 0.1))
                         : BBox::FromPoint(c);
    if (rng->Bernoulli(0.8)) {
      entries.push_back({id, box, rng->Uniform(0.05, 2.0)});
    } else {
      entries.push_back({id, box});
    }
  }
  return entries;
}

SpatialDistConfig UniformDist() { return {}; }

SpatialDistConfig ZipfDist() {
  SpatialDistConfig d;
  d.kind = SpatialDistribution::kZipf;
  d.zipf_skew = 0.9;
  return d;
}

SpatialDistConfig ClusterDist() {
  SpatialDistConfig d;
  d.kind = SpatialDistribution::kGaussian;
  d.gaussian_sigma = 0.05;
  return d;
}

void ExpectSameAnswers(const SpatialIndex& rtree, const SpatialIndex& brute,
                       Rng* rng, int num_queries) {
  for (int q = 0; q < num_queries; ++q) {
    const BBox query =
        q % 2 == 0
            ? BBox::FromPoint({rng->Uniform(-0.2, 1.2), rng->Uniform(-0.2, 1.2)})
            : BBox::KernelBox({rng->Uniform(), rng->Uniform()},
                              rng->Uniform(0.0, 0.3), rng->Uniform(0.0, 0.3));
    const double radius = rng->Uniform(0.0, 0.4);
    EXPECT_EQ(CollectWithin(rtree, query, radius),
              CollectWithin(brute, query, radius))
        << "q=" << q;
    const double velocity = rng->Uniform(0.0, 0.6);
    const double max_deadline = rng->Uniform(0.05, 2.5);
    EXPECT_EQ(CollectReachable(rtree, query, velocity, max_deadline),
              CollectReachable(brute, query, velocity, max_deadline))
        << "q=" << q;
  }
}

TEST(RTreeIndexTest, EmptyIndexReturnsNothing) {
  RTreeIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 10.0).empty());
  // BulkLoad of nothing is a legal reset.
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.5})}});
  index.BulkLoad({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.height(), 0);
  EXPECT_TRUE(CollectReachable(index, BBox::FromPoint({0.5, 0.5}), 1.0, 10.0)
                  .empty());
}

TEST(RTreeIndexTest, SingleEntry) {
  RTreeIndex index;
  index.BulkLoad({{7, BBox::FromPoint({0.25, 0.5})}});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.75, 0.5}), 0.5),
            (std::vector<int64_t>{7}));
  EXPECT_TRUE(
      CollectWithin(index, BBox::FromPoint({0.75, 0.5}), 0.5 - 1e-9).empty());
}

TEST(RTreeIndexTest, ZeroRadiusIsInclusive) {
  RTreeIndex index;
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.5})},
                  {2, BBox::FromPoint({0.5 + 1e-9, 0.5})},
                  {3, BBox({0.4, 0.4}, {0.5, 0.5})}});
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.0),
            (std::vector<int64_t>{1, 3}));
}

TEST(RTreeIndexTest, AllPointsIdentical) {
  // Every entry shares one location: STR packing sees nothing but ties,
  // and must still produce a tree with every entry found once.
  RTreeIndex index(8);
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

TEST(RTreeIndexTest, EntitiesOutsideUnitSquareAreFound) {
  RTreeIndex index;
  index.BulkLoad({{1, BBox::FromPoint({1.4, 0.5})},
                  {2, BBox::FromPoint({-0.3, -0.2})}});
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.9, 0.5}), 0.5),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(CollectWithin(index, BBox::FromPoint({0.0, 0.0}), 0.4),
            (std::vector<int64_t>{2}));
  EXPECT_TRUE(CollectWithin(index, BBox::FromPoint({0.5, 0.5}), 0.2).empty());
}

TEST(RTreeIndexTest, MatchesBruteForceAcrossDistributions) {
  // The semantics oracle: on uniform, Zipf and Gaussian-cluster sets the
  // packed tree answers every query identically to the linear scan,
  // including after a reload into the retained arena.
  const struct {
    const char* name;
    SpatialDistConfig dist;
  } regimes[] = {{"uniform", UniformDist()},
                 {"zipf", ZipfDist()},
                 {"cluster", ClusterDist()}};
  for (const auto& regime : regimes) {
    for (const int fanout : {4, 16}) {
      Rng rng(1000 + fanout);
      RTreeIndex rtree(fanout);
      for (const int n : {600, 250}) {
        const std::vector<IndexEntry> entries =
            SampleEntries(regime.dist, n, &rng);
        BruteForceIndex brute;
        brute.BulkLoad(entries);
        rtree.BulkLoad(entries);
        SCOPED_TRACE(std::string(regime.name) + " fanout " +
                     std::to_string(fanout) + " n " + std::to_string(n));
        ASSERT_EQ(rtree.size(), entries.size());
        ExpectSameAnswers(rtree, brute, &rng, 100);
      }
    }
  }
}

TEST(RTreeIndexTest, QueryReachableFiltersByPerEntryDeadline) {
  RTreeIndex index;
  index.BulkLoad({{1, BBox::FromPoint({0.5, 0.0}), /*deadline=*/1.0},
                  {2, BBox::FromPoint({0.5, 0.0}), /*deadline=*/0.2},
                  {3, BBox::FromPoint({0.9, 0.0}), /*deadline=*/0.95}});
  const BBox query = BBox::FromPoint({0.0, 0.0});
  EXPECT_EQ(CollectReachable(index, query, 1.0, 1.0),
            (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(CollectReachable(index, query, 0.6, 1.0),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(CollectReachable(index, query, 0.1, 1.0),
            (std::vector<int64_t>{}));
}

TEST(RTreeIndexTest, DefaultDeadlineNeverPrunes) {
  // Entries without deadlines (infinity) behave exactly like a plain
  // radius query — including velocity 0 (NaN product) and negative
  // velocities (degrade to 0), at the node-pruning level too.
  RTreeIndex index;
  index.BulkLoad({{1, BBox::FromPoint({0.3, 0.3})},
                  {2, BBox({0.2, 0.2}, {0.8, 0.8})}});
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.3, 0.3}), 0.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.3, 0.3}), -1.0, 2.0),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.0, 0.0}), 1.0, 0.5),
            (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(CollectReachable(index, BBox::FromPoint({0.0, 0.0}), 1.0, 0.3),
            (std::vector<int64_t>{2}));
}

TEST(RTreeIndexTest, FanoutClampAndHeightGrowth) {
  RTreeIndex index(4);
  EXPECT_EQ(index.max_entries(), 4);
  EXPECT_EQ(index.height(), 0);
  Rng rng(5);
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 500; ++id) {
    entries.push_back({id, BBox::FromPoint({rng.Uniform(), rng.Uniform()})});
  }
  // 500 entries at fan-out 4 force several internal levels.
  index.BulkLoad(entries);
  EXPECT_GE(index.height(), 3);
  EXPECT_EQ(CollectWithin(index, BBox({0, 0}, {1, 1}), 0.0).size(), 500u);
  // Reloading one entry into the same arena collapses the tree to a leaf.
  index.BulkLoad({entries.back()});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.height(), 0);
  EXPECT_EQ(CollectWithin(index, entries.back().box, 0.0),
            (std::vector<int64_t>{499}));
  // And growing again rebuilds the levels.
  index.BulkLoad(entries);
  EXPECT_GE(index.height(), 3);
  EXPECT_EQ(CollectWithin(index, entries.front().box, 0.0),
            (std::vector<int64_t>{0}));

  // Constructor clamps pathological fan-outs.
  EXPECT_EQ(RTreeIndex(1).max_entries(), 4);
  EXPECT_EQ(RTreeIndex(1000).max_entries(), 128);
}

TEST(RTreeIndexTest, FactoryCreatesRTree) {
  EXPECT_STREQ(CreateSpatialIndex(IndexBackend::kRTree)->name(), "RTREE");
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kRTree), "RTREE");
  // kAuto still resolves to brute/grid only — the R-tree is opt-in.
  EXPECT_EQ(ResolveBackend(IndexBackend::kRTree, 1, 1), IndexBackend::kRTree);
  EXPECT_EQ(ResolveBackend(IndexBackend::kAuto, 1000, 1000),
            IndexBackend::kGrid);
}

}  // namespace
}  // namespace mqa

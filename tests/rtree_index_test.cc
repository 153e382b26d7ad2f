// The packed R-tree's structure: height growth and collapse across
// BulkLoads, reloads at heights 3, 2 and 1 answering exactly like the
// reference BruteForceIndex, and a pinned visit order on loads full of
// tied centers. Query semantics shared with BruteForceIndex are in
// index_test.cc.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force_index.h"
#include "index/rtree_index.h"
#include "workload/spatial_dist.h"

namespace mqa {
namespace {

std::vector<int64_t> CollectReachable(const SpatialIndex& index,
                                      const BBox& query, double velocity,
                                      double max_deadline) {
  std::vector<int64_t> ids;
  index.QueryReachable(query, velocity, max_deadline,
                       [&](int64_t id, const BBox&, double) {
                         ids.push_back(id);
                       });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(RTreeIndexTest, HeightGrowth) {
  RTreeIndex index;
  EXPECT_EQ(index.height(), 0);
  Rng rng(5);
  std::vector<IndexEntry> entries;
  for (int64_t id = 0; id < 5000; ++id) {
    entries.push_back({id, BBox::FromPoint({rng.Uniform(), rng.Uniform()})});
  }
  const BBox everywhere({0, 0}, {1, 1});
  // 5,000 entries at fan-out 16 need 313 leaves under three levels.
  index.BulkLoad(entries);
  EXPECT_EQ(index.height(), 3);
  EXPECT_EQ(CollectReachable(index, everywhere, 1.0, 0.0).size(), 5000u);
  // Reloading one entry into the same arrays collapses the tree to a leaf.
  index.BulkLoad({entries.back()});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.height(), 0);
  EXPECT_EQ(CollectReachable(index, entries.back().box, 1.0, 0.0),
            (std::vector<int64_t>{4999}));
  // And growing again rebuilds the levels.
  index.BulkLoad(entries);
  EXPECT_EQ(index.height(), 3);
  EXPECT_EQ(CollectReachable(index, entries.front().box, 1.0, 0.0),
            (std::vector<int64_t>{0}));
  // An empty load leaves no root.
  index.BulkLoad({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.height(), 0);
  EXPECT_TRUE(CollectReachable(index, everywhere, 1.0, 0.0).empty());
}

TEST(RTreeIndexTest, TiedCentersKeepTheirPinnedVisitOrder) {
  // STR packing breaks center ties by position, so a load full of ties
  // still packs one fixed tree. The golden was recorded on the packing
  // that stable-sorted item indices; it folds the full-query visit order
  // and the height of loads whose centers all coincide, take eight
  // distinct x-values, or take eight distinct x- and eight distinct
  // y-values (y ties between different x within a slice). Any change to
  // how ties fall moves it.
  constexpr uint64_t kExpected = 0x58fdb375824f3727ull;
  Rng rng(27);
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  // Dyadic centers and half-widths, so every box center is exact and the
  // ties are real ones.
  const auto eighth = [&rng] {
    return static_cast<double>(rng.UniformInt(4, 11)) / 16.0;
  };
  RTreeIndex index;
  const BBox everywhere({0, 0}, {1, 1});
  for (int load = 0; load < 3; ++load) {
    for (const int n : {1, 16, 17, 256, 257, 300, 1000, 5000}) {
      std::vector<IndexEntry> entries;
      for (int64_t id = 0; id < n; ++id) {
        Point c{0.5, 0.5};
        if (load > 0) c.x = eighth();
        if (load == 1) c.y = rng.Uniform(0.2, 0.8);
        if (load == 2) c.y = eighth();
        const double half = static_cast<double>(rng.UniformInt(0, 40)) / 1024.0;
        const BBox box = BBox::KernelBox(c, half, half);
        ASSERT_EQ(box.Center().x, c.x);
        if (load != 1) {
          ASSERT_EQ(box.Center().y, c.y);
        }
        entries.push_back({id, box});
      }
      index.BulkLoad(entries);
      mix(static_cast<uint64_t>(index.height()));
      index.QueryReachable(everywhere, 1.0, 0.0,
                           [&](int64_t id, const BBox&, double) {
                             mix(static_cast<uint64_t>(id));
                           });
    }
  }
  EXPECT_EQ(h, kExpected) << "got 0x" << std::hex << h;
}

TEST(RTreeIndexTest, ReloadsMatchBruteForce) {
  // One tree reloaded with 5,000, 600 and 250 entries (heights 3, 2 and
  // 1; the simulator's load-every-epoch pattern, shrinking into arrays
  // sized by the first load), on uniform, Zipf and Gaussian-cluster sets
  // of mixed point/kernel boxes and deadlines.
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

  const struct {
    int n;
    int height;
  } loads[] = {{5000, 3}, {600, 2}, {250, 1}};

  for (const auto& regime : regimes) {
    Rng rng(1016);
    RTreeIndex rtree;
    for (const auto& load : loads) {
      std::vector<IndexEntry> entries;
      for (int64_t id = 0; id < load.n; ++id) {
        const Point c = SampleLocation(regime.dist, &rng);
        const BBox box = rng.Bernoulli(0.3)
                             ? BBox::KernelBox(c, rng.Uniform(0.0, 0.1),
                                               rng.Uniform(0.0, 0.1))
                             : BBox::FromPoint(c);
        entries.push_back({id, box, rng.Bernoulli(0.8)
                                        ? rng.Uniform(0.05, 2.0)
                                        : IndexEntry().deadline});
      }
      BruteForceIndex brute;
      brute.BulkLoad(entries);
      rtree.BulkLoad(entries);
      SCOPED_TRACE(std::string(regime.name) + " n " + std::to_string(load.n));
      ASSERT_EQ(rtree.size(), entries.size());
      EXPECT_EQ(rtree.height(), load.height);
      for (int q = 0; q < 100; ++q) {
        const BBox query =
            q % 2 == 0 ? BBox::FromPoint({rng.Uniform(-0.2, 1.2),
                                          rng.Uniform(-0.2, 1.2)})
                       : BBox::KernelBox({rng.Uniform(), rng.Uniform()},
                                         rng.Uniform(0.0, 0.3),
                                         rng.Uniform(0.0, 0.3));
        const double velocity = rng.Uniform(0.0, 0.6);
        const double max_deadline = rng.Uniform(0.05, 2.5);
        EXPECT_EQ(CollectReachable(rtree, query, velocity, max_deadline),
                  CollectReachable(brute, query, velocity, max_deadline))
            << "q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace mqa

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "workload/checkin.h"
#include "workload/scenario.h"
#include "workload/spatial_dist.h"
#include "workload/synthetic.h"

namespace mqa {
namespace {

TEST(SpatialDistTest, UniformCoversSpace) {
  Rng rng(1);
  SpatialDistConfig config;
  config.kind = SpatialDistribution::kUniform;
  int quadrant_counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    const Point p = SampleLocation(config, &rng);
    ASSERT_GE(p.x, 0.0);
    ASSERT_LE(p.x, 1.0);
    const int q = (p.x >= 0.5 ? 1 : 0) + (p.y >= 0.5 ? 2 : 0);
    ++quadrant_counts[q];
  }
  for (const int c : quadrant_counts) EXPECT_NEAR(c, 1000, 120);
}

TEST(SpatialDistTest, GaussianConcentratesAtCenter) {
  Rng rng(2);
  SpatialDistConfig config;
  config.kind = SpatialDistribution::kGaussian;
  config.gaussian_sigma = 0.15;
  int center = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Point p = SampleLocation(config, &rng);
    if (Distance(p, {0.5, 0.5}) < 0.25) ++center;
  }
  // Within ~1.67 sigma of the center: far more than the uniform 19.6%.
  EXPECT_GT(center / static_cast<double>(n), 0.6);
}

TEST(SpatialDistTest, GaussianDefaultSigmaClusters) {
  // The default sigma is 0.25, not the paper's 1 (docs/DEVIATIONS.md,
  // row D8): truncated to the unit square, sigma 1 is nearly uniform,
  // while 0.25 keeps a central cluster.
  SpatialDistConfig config;
  config.kind = SpatialDistribution::kGaussian;
  EXPECT_EQ(config.gaussian_sigma, 0.25);
  const auto share_near_center = [](const SpatialDistConfig& c) {
    Rng rng(4);
    int center = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      if (Distance(SampleLocation(c, &rng), {0.5, 0.5}) < 0.25) ++center;
    }
    return center / static_cast<double>(n);
  };
  SpatialDistConfig paper = config;
  paper.gaussian_sigma = 1.0;
  // Uniform puts 19.6% within 0.25 of the center.
  EXPECT_GT(share_near_center(config), 0.35);
  EXPECT_LT(share_near_center(paper), 0.25);
}

TEST(SpatialDistTest, ZipfSkewsTowardOrigin) {
  Rng rng(3);
  SpatialDistConfig config;
  config.kind = SpatialDistribution::kZipf;
  config.zipf_skew = 0.8;
  double sum_x = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum_x += SampleLocation(config, &rng).x;
  EXPECT_LT(sum_x / n, 0.4);  // mass pulled toward 0
}

TEST(SpatialDistTest, CodesStable) {
  EXPECT_STREQ(SpatialDistributionCode(SpatialDistribution::kUniform), "U");
  EXPECT_STREQ(SpatialDistributionCode(SpatialDistribution::kGaussian), "G");
  EXPECT_STREQ(SpatialDistributionCode(SpatialDistribution::kZipf), "Z");
}

TEST(SyntheticTest, CountsAndStampsCorrect) {
  SyntheticConfig config;
  config.num_workers = 103;
  config.num_tasks = 57;
  config.num_instances = 10;
  const ArrivalStream stream = GenerateSynthetic(config);
  EXPECT_TRUE(stream.Validate().ok());
  EXPECT_EQ(stream.num_instances(), 10);
  int64_t workers = 0;
  int64_t tasks = 0;
  for (int p = 0; p < 10; ++p) {
    workers += static_cast<int64_t>(stream.workers[p].size());
    tasks += static_cast<int64_t>(stream.tasks[p].size());
    // Even split: every batch within 1 of total/instances.
    EXPECT_NEAR(static_cast<double>(stream.workers[p].size()), 10.3, 0.7);
  }
  EXPECT_EQ(workers, 103);
  EXPECT_EQ(tasks, 57);
}

TEST(SyntheticTest, AttributeRangesRespected) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.num_instances = 3;
  config.velocity_lo = 0.1;
  config.velocity_hi = 0.2;
  config.deadline_lo = 0.5;
  config.deadline_hi = 1.0;
  const ArrivalStream stream = GenerateSynthetic(config);
  for (const auto& batch : stream.workers) {
    for (const Worker& w : batch) {
      EXPECT_GE(w.velocity, 0.1);
      EXPECT_LE(w.velocity, 0.2);
      EXPECT_TRUE(w.location.IsPoint());
    }
  }
  for (const auto& batch : stream.tasks) {
    for (const Task& t : batch) {
      EXPECT_GE(t.deadline, 0.5);
      EXPECT_LE(t.deadline, 1.0);
    }
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  SyntheticConfig config;
  config.num_workers = 50;
  config.num_tasks = 50;
  config.num_instances = 5;
  const ArrivalStream a = GenerateSynthetic(config);
  const ArrivalStream b = GenerateSynthetic(config);
  for (int p = 0; p < 5; ++p) {
    ASSERT_EQ(a.workers[p].size(), b.workers[p].size());
    for (size_t i = 0; i < a.workers[p].size(); ++i) {
      EXPECT_EQ(a.workers[p][i].Center(), b.workers[p][i].Center());
    }
  }
  config.seed = 77;
  const ArrivalStream c = GenerateSynthetic(config);
  EXPECT_NE(a.workers[0][0].Center(), c.workers[0][0].Center());
}

TEST(SyntheticTest, UniqueIds) {
  SyntheticConfig config;
  config.num_workers = 200;
  config.num_tasks = 200;
  config.num_instances = 4;
  const ArrivalStream stream = GenerateSynthetic(config);
  std::set<WorkerId> ids;
  for (const auto& batch : stream.workers) {
    for (const Worker& w : batch) {
      EXPECT_TRUE(ids.insert(w.id).second);
    }
  }
}

bool SameWorker(const Worker& a, const Worker& b) {
  return a.id == b.id && a.location == b.location &&
         a.velocity == b.velocity && a.arrival == b.arrival;
}

bool SameTask(const Task& a, const Task& b) {
  return a.id == b.id && a.location == b.location &&
         a.deadline == b.deadline && a.arrival == b.arrival;
}

TEST(SyntheticTest, ParallelGenerationIdenticalToSequential) {
  SyntheticConfig config;
  config.num_workers = 3 * kWorkloadChunk + 137;  // straddle chunk bounds
  config.num_tasks = 2 * kWorkloadChunk + 11;
  config.num_instances = 7;
  config.seed = 23;
  const ArrivalStream sequential = GenerateSynthetic(config);
  EXPECT_TRUE(sequential.Validate().ok());
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const ArrivalStream parallel = GenerateSynthetic(config, &pool);
    ASSERT_EQ(parallel.num_instances(), sequential.num_instances());
    for (int p = 0; p < sequential.num_instances(); ++p) {
      ASSERT_EQ(parallel.workers[p].size(), sequential.workers[p].size());
      for (size_t i = 0; i < sequential.workers[p].size(); ++i) {
        ASSERT_TRUE(SameWorker(parallel.workers[p][i],
                               sequential.workers[p][i]))
            << "threads=" << threads << " instance " << p << " worker " << i;
      }
      ASSERT_EQ(parallel.tasks[p].size(), sequential.tasks[p].size());
      for (size_t j = 0; j < sequential.tasks[p].size(); ++j) {
        ASSERT_TRUE(SameTask(parallel.tasks[p][j], sequential.tasks[p][j]))
            << "threads=" << threads << " instance " << p << " task " << j;
      }
    }
  }
}

TEST(ScenarioTest, ParallelGenerationIdenticalToSequential) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kBursty;
  config.num_workers = 9000;
  config.num_tasks = 9000;
  config.horizon = 10.0;
  config.seed = 5;
  const ScenarioStream sequential = GenerateScenario(config);
  ThreadPool pool(4);
  const ScenarioStream parallel = GenerateScenario(config, &pool);
  ASSERT_EQ(parallel.workers.size(), sequential.workers.size());
  ASSERT_EQ(parallel.tasks.size(), sequential.tasks.size());
  for (size_t i = 0; i < sequential.workers.size(); ++i) {
    ASSERT_EQ(parallel.workers[i].time, sequential.workers[i].time);
    ASSERT_TRUE(SameWorker(parallel.workers[i].worker,
                           sequential.workers[i].worker));
  }
  for (size_t j = 0; j < sequential.tasks.size(); ++j) {
    ASSERT_EQ(parallel.tasks[j].time, sequential.tasks[j].time);
    ASSERT_TRUE(SameTask(parallel.tasks[j].task, sequential.tasks[j].task));
  }
}

TEST(ScenarioTest, CountsSortedTimesAndHorizonBounds) {
  for (const ScenarioKind kind :
       {ScenarioKind::kPaper, ScenarioKind::kRushHour, ScenarioKind::kBursty,
        ScenarioKind::kHotspotDrift}) {
    ScenarioConfig config;
    config.kind = kind;
    config.num_workers = 900;
    config.num_tasks = 700;
    config.horizon = 8.0;
    const ScenarioStream stream = GenerateScenario(config);
    ASSERT_EQ(stream.workers.size(), 900u) << ScenarioKindToString(kind);
    ASSERT_EQ(stream.tasks.size(), 700u);
    double prev = 0.0;
    for (const TimedWorker& tw : stream.workers) {
      ASSERT_GE(tw.time, prev);
      ASSERT_LT(tw.time, config.horizon);
      ASSERT_EQ(tw.worker.arrival,
                static_cast<Timestamp>(std::floor(tw.time)));
      prev = tw.time;
    }
  }
}

TEST(ScenarioTest, BurstyConcentratesArrivals) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kBursty;
  config.num_workers = 8000;
  config.num_tasks = 0;
  config.horizon = 10.0;
  config.burst_amplitude = 20.0;
  const ScenarioStream stream = GenerateScenario(config);
  // Slice the horizon into 100 buckets: with 20x bursts, the busiest
  // bucket must dwarf the median-ish quiet bucket.
  std::vector<int> buckets(100, 0);
  for (const TimedWorker& tw : stream.workers) {
    ++buckets[static_cast<size_t>(std::min(
        99.0, tw.time / config.horizon * 100.0))];
  }
  std::vector<int> sorted = buckets;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), 4 * std::max(1, sorted[50]));
}

TEST(ScenarioTest, RushHourPeaksWhereConfigured) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kRushHour;
  config.num_workers = 8000;
  config.num_tasks = 0;
  config.horizon = 10.0;
  config.rush_peak1 = 0.3;
  config.rush_peak2 = 0.75;
  config.rush_amplitude = 6.0;
  const ScenarioStream stream = GenerateScenario(config);
  int near_peak = 0;
  int near_trough = 0;
  for (const TimedWorker& tw : stream.workers) {
    const double x = tw.time / config.horizon;
    if (std::fabs(x - 0.3) < 0.05 || std::fabs(x - 0.75) < 0.05) ++near_peak;
    if (std::fabs(x - 0.52) < 0.05 || std::fabs(x - 0.05) < 0.05)
      ++near_trough;
  }
  EXPECT_GT(near_peak, 2 * near_trough);
}

TEST(ScenarioTest, HotspotDriftMigratesCenter) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kHotspotDrift;
  config.num_workers = 6000;
  config.num_tasks = 0;
  config.horizon = 10.0;
  config.worker_dist.kind = SpatialDistribution::kGaussian;
  config.worker_dist.gaussian_sigma = 0.1;
  config.drift_start = {0.2, 0.2};
  config.drift_end = {0.8, 0.8};
  const ScenarioStream stream = GenerateScenario(config);
  double early_x = 0.0, late_x = 0.0;
  int early_n = 0, late_n = 0;
  for (const TimedWorker& tw : stream.workers) {
    if (tw.time < 0.2 * config.horizon) {
      early_x += tw.worker.Center().x;
      ++early_n;
    } else if (tw.time > 0.8 * config.horizon) {
      late_x += tw.worker.Center().x;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 100);
  ASSERT_GT(late_n, 100);
  EXPECT_LT(early_x / early_n, 0.4);  // near drift_start
  EXPECT_GT(late_x / late_n, 0.6);    // near drift_end
}

TEST(ScenarioTest, ToArrivalStreamBucketsAndValidates) {
  ScenarioConfig config;
  config.kind = ScenarioKind::kRushHour;
  config.num_workers = 500;
  config.num_tasks = 400;
  config.horizon = 6.0;
  const ScenarioStream scenario = GenerateScenario(config);
  const ArrivalStream stream = ScenarioToArrivalStream(scenario, 6);
  EXPECT_TRUE(stream.Validate().ok());
  int64_t workers = 0, tasks = 0;
  for (int p = 0; p < 6; ++p) {
    workers += static_cast<int64_t>(stream.workers[p].size());
    tasks += static_cast<int64_t>(stream.tasks[p].size());
  }
  EXPECT_EQ(workers, 500);
  EXPECT_EQ(tasks, 400);
}

TEST(CheckinTest, ScaleMatchesPaperDefaults) {
  CheckinConfig config;
  config.num_workers = 500;  // scaled down for test speed
  config.num_tasks = 700;
  config.num_instances = 8;
  const ArrivalStream stream = GenerateCheckin(config);
  EXPECT_TRUE(stream.Validate().ok());
  int64_t workers = 0;
  int64_t tasks = 0;
  for (int p = 0; p < 8; ++p) {
    workers += static_cast<int64_t>(stream.workers[p].size());
    tasks += static_cast<int64_t>(stream.tasks[p].size());
  }
  EXPECT_EQ(workers, 500);
  EXPECT_EQ(tasks, 700);
}

TEST(CheckinTest, ArrivalsFollowDoublePeakIntensity) {
  CheckinConfig config;
  config.num_workers = 3000;
  config.num_tasks = 3000;
  config.num_instances = 10;
  const ArrivalStream stream = GenerateCheckin(config);
  // The batch sizes must not be uniform: max/min ratio > 1.5.
  size_t lo = stream.workers[0].size();
  size_t hi = lo;
  for (const auto& batch : stream.workers) {
    lo = std::min(lo, batch.size());
    hi = std::max(hi, batch.size());
  }
  EXPECT_GT(static_cast<double>(hi) / std::max<size_t>(lo, 1), 1.5);
}

TEST(CheckinTest, LocationsAreClustered) {
  CheckinConfig config;
  config.num_workers = 2000;
  config.num_tasks = 100;
  config.num_instances = 5;
  const ArrivalStream stream = GenerateCheckin(config);
  // Clustering test: mean nearest-hotspot-ish dispersion. Use the mean
  // pairwise distance, which for uniform [0,1]^2 is ~0.52; clustered
  // check-ins should sit clearly below.
  std::vector<Point> pts;
  for (const auto& batch : stream.workers) {
    for (const Worker& w : batch) pts.push_back(w.Center());
  }
  Rng rng(5);
  double sum = 0.0;
  const int pairs = 4000;
  for (int i = 0; i < pairs; ++i) {
    const auto a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pts.size()) - 1));
    const auto b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pts.size()) - 1));
    sum += Distance(pts[a], pts[b]);
  }
  EXPECT_LT(sum / pairs, 0.45);
}

TEST(CheckinTest, WorkerTaskHotspotOffsetSeparatesNearestNeighbors) {
  // With the default task_hotspot_offset, a worker's nearest task is
  // typically farther than with offset 0 — the Fig. 13 regime requires
  // that tight deadlines cannot bridge the two services' venues.
  auto mean_nearest_task_distance = [](double offset) {
    CheckinConfig config;
    config.num_workers = 400;
    config.num_tasks = 400;
    config.num_instances = 2;
    config.task_hotspot_offset = offset;
    config.seed = 31;
    const ArrivalStream stream = GenerateCheckin(config);
    double sum = 0.0;
    int count = 0;
    for (const Worker& w : stream.workers[0]) {
      double best = 1e9;
      for (const Task& t : stream.tasks[0]) {
        best = std::min(best, Distance(w.Center(), t.Center()));
      }
      sum += best;
      ++count;
    }
    return sum / count;
  };
  EXPECT_GT(mean_nearest_task_distance(0.18),
            1.5 * mean_nearest_task_distance(0.0));
}

TEST(CheckinTest, WorkerAndTaskDistributionsDiffer) {
  CheckinConfig config;
  config.num_workers = 3000;
  config.num_tasks = 3000;
  config.num_instances = 5;
  const ArrivalStream stream = GenerateCheckin(config);
  // Compare 4x4 cell histograms of workers vs tasks (separate venue sets
  // must give visibly different spatial profiles).
  auto histogram = [](const std::vector<std::vector<Worker>>& batches) {
    std::vector<double> h(16, 0.0);
    double total = 0.0;
    for (const auto& b : batches) {
      for (const Worker& w : b) {
        const Point p = w.Center();
        const int cx = std::min(3, static_cast<int>(p.x * 4));
        const int cy = std::min(3, static_cast<int>(p.y * 4));
        h[static_cast<size_t>(cy * 4 + cx)] += 1.0;
        total += 1.0;
      }
    }
    for (auto& v : h) v /= total;
    return h;
  };
  auto task_histogram = [](const std::vector<std::vector<Task>>& batches) {
    std::vector<double> h(16, 0.0);
    double total = 0.0;
    for (const auto& b : batches) {
      for (const Task& t : b) {
        const Point p = t.Center();
        const int cx = std::min(3, static_cast<int>(p.x * 4));
        const int cy = std::min(3, static_cast<int>(p.y * 4));
        h[static_cast<size_t>(cy * 4 + cx)] += 1.0;
        total += 1.0;
      }
    }
    for (auto& v : h) v /= total;
    return h;
  };
  const auto hw = histogram(stream.workers);
  const auto ht = task_histogram(stream.tasks);
  double l1 = 0.0;
  for (size_t i = 0; i < hw.size(); ++i) l1 += std::abs(hw[i] - ht[i]);
  EXPECT_GT(l1, 0.1);
}

}  // namespace
}  // namespace mqa

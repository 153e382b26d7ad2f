// Brute-force vs R-tree valid-pair generation at 1k/10k/50k workers x
// tasks, reporting wall time, emitted pairs and pairs/sec: the brute pass
// hands BuildPairPool a BruteForceIndex through set_task_index, the
// R-tree pass is BuildPairPool's default build.
//
// Two reach regimes: "city" (velocity 0.02-0.03, the hyperlocal setting
// where a worker covers a few blocks per instance — reach radius ~0.05 of
// the data space) and "paper" (Table IV velocities 0.2-0.3, radius up to
// 0.6 — most pairs valid, so indexing can only help marginally).
//
// The third phase measures pool *materialization* on the dense "paper"
// regime (the post-PR-1 bottleneck): columnar build time (Case 1-3
// statistics included), the build time into one kept PairPoolStorage
// (the simulator's per-epoch reuse) and bytes/pair, and emits the
// numbers as BENCH_pairpool.json.
//
// The fourth phase benchmarks the raw indexes (brute force and R-tree) on
// the paper's Fig. 18/19 location distributions — Uniform, Zipf and
// Gaussian-cluster worker/task combos via src/workload/spatial_dist —
// timing BulkLoad and the per-worker QueryReachable scan separately,
// self-checking that both visit the identical candidate set, and
// emitting BENCH_rtree.json.
//
// MQA_INDEX_BENCH_MAX caps the instance size (default 50000);
// MQA_BENCH_SCALE scales the pool-phase and skew-phase sizes (default 1).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/valid_pairs.h"
#include "index/brute_force_index.h"
#include "index/rtree_index.h"
#include "bench/bench_util.h"
#include "quality/range_quality.h"
#include "tests/test_util.h"
#include "workload/spatial_dist.h"

namespace mqa {
namespace {

using testing_util::AttachTaskIndex;
using testing_util::MakePredictedTask;
using testing_util::MakePredictedWorker;
using testing_util::MakeTask;
using testing_util::MakeWorker;

double Now(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

ProblemInstance UniformInstance(int n, double v_lo, double v_hi,
                                const QualityModel* quality, Rng* rng) {
  std::vector<Worker> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(v_lo, v_hi)));
  }
  std::vector<Task> tasks;
  tasks.reserve(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    tasks.push_back(
        MakeTask(j, rng->Uniform(), rng->Uniform(), rng->Uniform(1.0, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(n),
                         std::move(tasks), static_cast<size_t>(n), quality,
                         /*unit_price=*/10.0, /*budget=*/300.0);
}

/// Dense paper-regime instance with `n` current workers/tasks plus 10%
/// predicted entities — the simulator's input shape, so the Case 1-3
/// statistics are on the measured path.
ProblemInstance MixedPaperInstance(int n, const QualityModel* quality,
                                   Rng* rng) {
  const int n_pred = n / 10;
  std::vector<Worker> workers;
  workers.reserve(static_cast<size_t>(n + n_pred));
  for (int i = 0; i < n; ++i) {
    workers.push_back(MakeWorker(i, rng->Uniform(), rng->Uniform(),
                                 rng->Uniform(0.2, 0.3)));
  }
  for (int i = 0; i < n_pred; ++i) {
    workers.push_back(MakePredictedWorker(
        100000 + i,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()}, 0.05, 0.05),
        rng->Uniform(0.2, 0.3)));
  }
  std::vector<Task> tasks;
  tasks.reserve(static_cast<size_t>(n + n_pred));
  for (int j = 0; j < n; ++j) {
    tasks.push_back(
        MakeTask(j, rng->Uniform(), rng->Uniform(), rng->Uniform(1.0, 2.0)));
  }
  for (int j = 0; j < n_pred; ++j) {
    tasks.push_back(MakePredictedTask(
        100000 + j,
        BBox::KernelBox({rng->Uniform(), rng->Uniform()}, 0.05, 0.05),
        rng->Uniform(1.0, 2.0)));
  }
  return ProblemInstance(std::move(workers), static_cast<size_t>(n),
                         std::move(tasks), static_cast<size_t>(n), quality,
                         /*unit_price=*/10.0, /*budget=*/300.0);
}

/// Best-of-`reps` BuildPairPool time: with candidates from a
/// BruteForceIndex handed in through set_task_index when `brute`, else
/// from the R-tree BuildPairPool loads itself.
double TimePool(ProblemInstance instance, bool brute, int reps,
                size_t* num_pairs) {
  BruteForceIndex brute_index;
  if (brute) AttachTaskIndex(&instance, &brute_index);
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const PairPool pool = BuildPairPool(instance);
    const double s = Now(start);
    if (s < best) best = s;
    *num_pairs = pool.size();
  }
  return best;
}

void RunRegime(const char* name, double v_lo, double v_hi,
               const std::vector<int>& sizes, int max_n) {
  const RangeQualityModel quality(1.0, 2.0);
  std::printf("-- %s regime (velocity %.2f-%.2f, deadline 1-2) --\n", name,
              v_lo, v_hi);
  std::printf("%8s %12s %12s %14s %12s %14s %9s\n", "n", "pairs",
              "brute_s", "brute_pairs/s", "rtree_s", "rtree_pairs/s",
              "speedup");
  for (const int n : sizes) {
    if (n > max_n) continue;
    Rng rng(42 + n);
    const ProblemInstance instance = UniformInstance(n, v_lo, v_hi, &quality,
                                                     &rng);
    size_t pairs_brute = 0;
    size_t pairs_rtree = 0;
    // The brute pass is quadratic; run it once. The R-tree pass is cheap
    // enough to take the best of three.
    const double brute_s = TimePool(instance, true, 1, &pairs_brute);
    const double rtree_s =
        TimePool(instance, false, n <= 10000 ? 3 : 1, &pairs_rtree);
    if (pairs_brute != pairs_rtree) {
      std::fprintf(stderr, "FATAL: pair pools diverged (%zu vs %zu)\n",
                   pairs_brute, pairs_rtree);
      std::exit(1);
    }
    std::printf("%8d %12zu %12.4f %14.3e %12.4f %14.3e %8.1fx\n", n,
                pairs_brute, brute_s,
                static_cast<double>(pairs_brute) / brute_s, rtree_s,
                static_cast<double>(pairs_rtree) / rtree_s, brute_s / rtree_s);
  }
}

struct PoolPhaseResult {
  int n = 0;
  size_t pairs = 0;
  double build_s = 0.0;        // fresh storage
  double build_reuse_s = 0.0;  // steady state: storage kept across builds
  int64_t pool_bytes = 0;
  double bytes_per_pair = 0.0;
};

/// Measures columnar pool materialization on one mixed instance.
PoolPhaseResult MeasurePoolPhase(const ProblemInstance& instance, int n,
                                 int reps) {
  PoolPhaseResult result;
  result.n = n;

  result.build_s = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const PairPool pool = BuildPairPool(instance);
    result.build_s = std::min(result.build_s, Now(start));
    result.pairs = pool.size();
    const PairPoolStats stats = pool.Stats();
    result.pool_bytes = stats.pool_bytes;
    result.bytes_per_pair =
        pool.empty() ? 0.0
                     : static_cast<double>(stats.pool_bytes) /
                           static_cast<double>(pool.size());
  }

  // Steady state: one storage kept across epochs (the simulator path).
  // The first build grows its vectors; later builds reuse them.
  PairPoolStorage storage;
  result.build_reuse_s = 1e100;
  ProblemInstance reuse_instance = instance;
  reuse_instance.set_pool_storage(&storage);
  for (int r = 0; r < reps + 2; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const PairPool pool = BuildPairPool(reuse_instance);
    if (r > 0) {  // skip the cold build that grows the storage
      result.build_reuse_s = std::min(result.build_reuse_s, Now(start));
    }
  }

  return result;
}

void RunPoolPhase(const std::vector<int>& sizes, int max_n) {
  const RangeQualityModel quality(1.0, 2.0);
  std::printf(
      "\n-- pairpool materialization phase (paper regime + 10%% predicted) "
      "--\n");
  std::printf("%8s %12s %10s %10s %8s %10s\n", "n", "pairs", "build_s",
              "reuse_s", "B/pair", "Mpairs/s");

  std::vector<PoolPhaseResult> results;
  for (const int n : sizes) {
    if (n > max_n) continue;
    Rng rng(4242 + n);
    const ProblemInstance instance = MixedPaperInstance(n, &quality, &rng);
    const PoolPhaseResult r = MeasurePoolPhase(instance, n, n <= 2000 ? 3 : 1);
    results.push_back(r);
    std::printf("%8d %12zu %10.4f %10.4f %8.1f %10.3f\n", r.n, r.pairs,
                r.build_s, r.build_reuse_s, r.bytes_per_pair,
                static_cast<double>(r.pairs) / r.build_reuse_s / 1e6);
  }

  // Machine-readable record for CI history and the PR description.
  FILE* json = std::fopen("BENCH_pairpool.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write BENCH_pairpool.json\n");
    return;
  }
  std::fprintf(json, "{\n  \"regime\": \"paper+10%%predicted\",\n");
  std::fprintf(json, "  \"provenance\": {%s},\n",
               bench::ProvenanceFragment().c_str());
  std::fprintf(json, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const PoolPhaseResult& r = results[i];
    std::fprintf(
        json,
        "    {\"n\": %d, \"pairs\": %zu, \"build_seconds\": %.6f, "
        "\"build_reuse_seconds\": %.6f, "
        "\"pool_bytes\": %lld, \"bytes_per_pair\": %.2f, "
        "\"pairs_per_second_steady\": %.0f}%s\n",
        r.n, r.pairs, r.build_s, r.build_reuse_s,
        static_cast<long long>(r.pool_bytes), r.bytes_per_pair,
        static_cast<double>(r.pairs) / r.build_reuse_s,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_pairpool.json\n");
}

// --- skewed-distribution index phase ----------------------------------------

/// One (worker-dist, task-dist) combo in the paper's Fig. 18/19 coding:
/// "U-Z" = uniform workers querying Zipf-distributed tasks.
struct SkewRegime {
  const char* name;
  SpatialDistConfig worker_dist;
  SpatialDistConfig task_dist;
};

struct SkewIndexResult {
  const char* name = "";
  double build_s = 1e100;
  double query_s = 1e100;
  size_t candidates = 0;
  uint64_t checksum = 0;
};

/// Times BulkLoad and the per-worker QueryReachable scan separately; the
/// (count, checksum) pair certifies that both indexes visited the
/// identical candidate set.
template <typename Index>
SkewIndexResult MeasureSkewIndex(const std::vector<IndexEntry>& tasks,
                                 const std::vector<Worker>& workers,
                                 double max_deadline, int reps) {
  SkewIndexResult r;
  for (int rep = 0; rep < reps; ++rep) {
    Index index;
    auto start = std::chrono::steady_clock::now();
    index.BulkLoad(tasks);
    r.build_s = std::min(r.build_s, Now(start));

    size_t candidates = 0;
    uint64_t checksum = 0;
    start = std::chrono::steady_clock::now();
    for (const Worker& w : workers) {
      index.QueryReachable(w.location, w.velocity, max_deadline,
                           [&](int64_t id, const BBox&, double) {
                             ++candidates;
                             checksum += static_cast<uint64_t>(id) *
                                         uint64_t{2654435761};
                           });
    }
    r.query_s = std::min(r.query_s, Now(start));
    r.candidates = candidates;
    r.checksum = checksum;
    r.name = index.name();
  }
  return r;
}

void RunSkewPhase(const std::vector<int>& sizes, int max_n) {
  // City-regime reach (velocity 0.02-0.03, deadlines 1-2): the radius a
  // hyperlocal worker actually covers, so query cost is index-bound, not
  // emission-bound. Task deadlines double as the QueryReachable pruning
  // bound.
  constexpr double kDeadlineLo = 1.0, kDeadlineHi = 2.0;

  SpatialDistConfig uniform;
  SpatialDistConfig zipf;
  zipf.kind = SpatialDistribution::kZipf;
  zipf.zipf_skew = 0.9;  // sharper than the paper's 0.3: the stress case
  SpatialDistConfig cluster;
  cluster.kind = SpatialDistribution::kGaussian;
  cluster.gaussian_sigma = 0.05;  // one tight downtown cluster

  const SkewRegime regimes[] = {
      {"U-U", uniform, uniform},  // baseline: no skew
      {"U-Z", uniform, zipf},     // uniform demand over clustered supply
      {"U-G", uniform, cluster},
      {"Z-Z", zipf, zipf},  // everything piled into the same corner
      {"G-G", cluster, cluster},
  };

  std::printf(
      "\n-- skewed-distribution index phase (city reach, worker-dist - "
      "task-dist) --\n");
  std::printf("%6s %8s %12s %5s %12s %12s %12s\n", "combo", "n",
              "candidates", "index", "build_s", "query_s", "queries/s");

  FILE* json = std::fopen("BENCH_rtree.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write BENCH_rtree.json\n");
  } else {
    std::fprintf(json, "{\n  \"reach\": \"city (v 0.02-0.03, e 1-2)\",\n");
    std::fprintf(json, "  \"provenance\": {%s},\n",
                 bench::ProvenanceFragment().c_str());
    std::fprintf(json, "  \"results\": [\n");
  }
  bool first_row = true;

  for (const SkewRegime& regime : regimes) {
    for (const int n : sizes) {
      if (n > max_n || n < 1) continue;
      Rng rng(9000 + n);
      std::vector<IndexEntry> tasks;
      tasks.reserve(static_cast<size_t>(n));
      for (int64_t j = 0; j < n; ++j) {
        tasks.push_back({j, BBox::FromPoint(SampleLocation(regime.task_dist,
                                                           &rng)),
                         rng.Uniform(kDeadlineLo, kDeadlineHi)});
      }
      std::vector<Worker> workers;
      workers.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const Point c = SampleLocation(regime.worker_dist, &rng);
        workers.push_back(MakeWorker(i, c.x, c.y, rng.Uniform(0.02, 0.03)));
      }

      // The brute query pass is quadratic: past 10k it runs once, but it
      // always runs, so the R-tree is cross-checked at every size.
      const SkewIndexResult results[] = {
          MeasureSkewIndex<BruteForceIndex>(tasks, workers, kDeadlineHi,
                                            n <= 10000 ? 3 : 1),
          MeasureSkewIndex<RTreeIndex>(tasks, workers, kDeadlineHi,
                                       n <= 10000 ? 3 : 2)};
      if (results[1].candidates != results[0].candidates ||
          results[1].checksum != results[0].checksum) {
        std::fprintf(stderr,
                     "FATAL: RTREE candidate set diverged from BRUTE "
                     "(%zu vs %zu)\n",
                     results[1].candidates, results[0].candidates);
        std::exit(1);
      }

      for (const SkewIndexResult& r : results) {
        std::printf("%6s %8d %12zu %5s %12.4f %12.4f %12.3e\n", regime.name,
                    n, r.candidates, r.name, r.build_s, r.query_s,
                    static_cast<double>(n) / r.query_s);
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s    {\"regime\": \"%s\", \"n\": %d, \"backend\": \"%s\", "
              "\"candidates\": %zu, \"build_seconds\": %.6f, "
              "\"query_seconds\": %.6f}",
              first_row ? "" : ",\n", regime.name, n, r.name, r.candidates,
              r.build_s, r.query_s);
          first_row = false;
        }
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_rtree.json\n");
  }
}

}  // namespace
}  // namespace mqa

int main() {
  mqa::bench::InitObservability();
  int max_n = 50000;
  if (const char* cap = std::getenv("MQA_INDEX_BENCH_MAX")) {
    max_n = std::atoi(cap);
  }
  double scale = 1.0;
  if (const char* s = std::getenv("MQA_BENCH_SCALE")) {
    scale = std::atof(s);
    if (!(scale > 0.0) || scale > 1.0) scale = 1.0;
  }
  mqa::RunRegime("city", 0.02, 0.03, {1000, 10000, 50000}, max_n);
  // Paper velocities make most pairs valid; pool emission dominates and
  // the pool itself is quadratic-sized, so 50k is out of reach for any
  // enumeration strategy and the regime stops at 10k.
  mqa::RunRegime("paper", 0.2, 0.3, {1000, 10000}, max_n);
  mqa::RunPoolPhase({static_cast<int>(1000 * scale),
                     static_cast<int>(10000 * scale)},
                    max_n);
  mqa::RunSkewPhase({static_cast<int>(10000 * scale),
                     static_cast<int>(50000 * scale)},
                    max_n);
  return 0;
}

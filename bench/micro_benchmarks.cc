// Google-benchmark microbenchmarks for the core primitives: closed-form
// distance statistics, Eq. 7 comparison probabilities, greedy selection
// over a prebuilt pool and over one D&C leaf, the D&C merge, pair-pool
// construction, grid prediction, and one greedy assignment round. These
// quantify the per-operation costs behind the figure-level benches.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/comparators.h"
#include "core/greedy.h"
#include "core/merge.h"
#include "core/valid_pairs.h"
#include "index/brute_force_index.h"
#include "prediction/predictor.h"
#include "quality/range_quality.h"
#include "stats/distance_stats.h"
#include "stats/normal.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace {

using namespace mqa;

void BM_StdNormalCdf(benchmark::State& state) {
  double x = -4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(StdNormalCdf(x));
    x += 1e-6;
  }
}
BENCHMARK(BM_StdNormalCdf);

void BM_SquaredDistanceMoments(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSquaredDistanceMoments(a, b));
  }
}
BENCHMARK(BM_SquaredDistanceMoments);

void BM_DistanceBetweenBoxes(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceBetween(a, b));
  }
}
BENCHMARK(BM_DistanceBetweenBoxes);

// The pool fill's path: the same pair from per-entity moments computed
// once (MomentsOf), so only Eqs. 2-5 and the delta method run per pair.
void BM_DistanceBetweenMoments(benchmark::State& state) {
  const BBox a({0.1, 0.2}, {0.3, 0.4});
  const BBox b({0.6, 0.5}, {0.9, 0.8});
  const BoxMoments am = MomentsOf(a);
  const BoxMoments bm = MomentsOf(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceBetween(a, am, b, bm));
  }
}
BENCHMARK(BM_DistanceBetweenMoments);

CandidatePair RandomPair(Rng* rng) {
  CandidatePair p;
  const double c = rng->Uniform(0.5, 5.0);
  const double q = rng->Uniform(0.5, 2.5);
  if (rng->Bernoulli(0.5)) {
    p.cost = Uncertain(c, 0.05, c - 0.4, c + 0.4);
    p.quality = Uncertain(q, 0.1, q - 0.4, q + 0.4);
    p.involves_predicted = true;
    p.existence = rng->Uniform(0.3, 1.0);
  } else {
    p.cost = Uncertain::Fixed(c);
    p.quality = Uncertain::Fixed(q);
  }
  return p;
}

PairPool RandomPool(Rng* rng, int n) {
  PairPoolBuilder builder(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    CandidatePair p = RandomPair(rng);
    p.worker_index = i;
    p.task_index = i;
    builder.Add(p);
  }
  return std::move(builder).Build();
}

void BM_ProbQualityGreater(benchmark::State& state) {
  Rng rng(7);
  const PairPool pool = RandomPool(&rng, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbQualityGreater(pool.pair(0), pool.pair(1)));
  }
}
BENCHMARK(BM_ProbQualityGreater);

// The greedy selection loop alone (sort, incremental candidate sets,
// Eq. 10) over a prebuilt pool, at the CLI's default budget B = 75.
void BM_GreedySelect(benchmark::State& state) {
  Rng rng(11);
  const PairPool pool = RandomPool(&rng, static_cast<int>(state.range(0)));
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySelect(pool, ids, 75.0, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedySelect)->Arg(100)->Arg(1000)->Arg(10000);

// `n` current workers and tasks at points, followed by `num_predicted`
// predicted workers and tasks on kernel boxes.
ProblemInstance BenchInstance(int n, const RangeQualityModel* quality,
                              std::vector<Worker>* workers,
                              std::vector<Task>* tasks,
                              int num_predicted = 0) {
  Rng rng(13);
  const auto location = [&rng](bool predicted) {
    const Point center{rng.Uniform(), rng.Uniform()};
    if (!predicted) return BBox::FromPoint(center);
    const double hx = rng.Uniform(0.0, 0.05);
    const double hy = rng.Uniform(0.0, 0.05);
    return BBox::KernelBox(center, hx, hy);
  };
  workers->clear();
  tasks->clear();
  for (int i = 0; i < n + num_predicted; ++i) {
    const bool predicted = i >= n;
    Worker w;
    w.id = i;
    w.location = location(predicted);
    w.velocity = rng.Uniform(0.2, 0.3);
    w.predicted = predicted;
    workers->push_back(w);
    Task t;
    t.id = i;
    t.location = location(predicted);
    t.deadline = rng.Uniform(1.0, 2.0);
    t.predicted = predicted;
    tasks->push_back(t);
  }
  return ProblemInstance(*workers, static_cast<size_t>(n), *tasks,
                         static_cast<size_t>(n), quality, 10.0, 75.0);
}

void BM_BuildPairPool(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                                  &workers, &tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPairPool(inst));
  }
}
BENCHMARK(BM_BuildPairPool)->Arg(100)->Arg(300);

// As above plus as many predicted workers and tasks as current ones, so
// most pairs have a box endpoint and the fill runs the box-moment path.
void BM_BuildPairPoolPredicted(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const int n = static_cast<int>(state.range(0));
  const auto inst = BenchInstance(n, &quality, &workers, &tasks, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPairPool(inst));
  }
}
BENCHMARK(BM_BuildPairPoolPredicted)->Arg(100)->Arg(300);

// A D&C leaf: GreedySelect over one task's PairsByTask row (the longest)
// of a predicted-entity pool, so its one S_p comes from the scan.
void BM_GreedySelectLeaf(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const int n = static_cast<int>(state.range(0));
  const auto inst = BenchInstance(n, &quality, &workers, &tasks, n);
  const PairPool pool = BuildPairPool(inst);
  PairIdSpan row;
  for (size_t t = 0; t < pool.num_tasks(); ++t) {
    const PairIdSpan candidate = pool.PairsByTask(static_cast<int32_t>(t));
    if (candidate.size() > row.size()) row = candidate;
  }
  const std::vector<int32_t> ids(row.begin(), row.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySelect(pool, ids, 75.0, 0.5));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_GreedySelectLeaf)->Arg(100)->Arg(300);

// The D&C merge of two sibling results on the same predicted-entity pool:
// GreedySelect over the even tasks' pairs and over the odd tasks', which
// share workers and so conflict.
void BM_MergeResults(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const int n = static_cast<int>(state.range(0));
  const auto inst = BenchInstance(n, &quality, &workers, &tasks, n);
  const PairPool pool = BuildPairPool(inst);
  std::vector<int32_t> halves[2];
  for (size_t t = 0; t < pool.num_tasks(); ++t) {
    for (const int32_t id : pool.PairsByTask(static_cast<int32_t>(t))) {
      halves[t % 2].push_back(id);
    }
  }
  const std::vector<int32_t> first = GreedySelect(pool, halves[0], 75.0, 0.5);
  const std::vector<int32_t> second =
      GreedySelect(pool, halves[1], 75.0, 0.5);
  for (auto _ : state) {
    std::vector<int32_t> merged = first;
    MergeResults(pool, &merged, second);
    benchmark::DoNotOptimize(merged.data());
  }
}
BENCHMARK(BM_MergeResults)->Arg(100)->Arg(300);

// Same pool, with candidate tasks from a BruteForceIndex handed in
// through set_task_index (second arg 0) or from the R-tree BuildPairPool
// loads itself (1); bench/index_bench.cc covers the large-scale
// comparison.
void BM_BuildPairPoolBackend(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                            &workers, &tasks);
  BruteForceIndex brute;
  if (state.range(1) == 0) testing_util::AttachTaskIndex(&inst, &brute);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPairPool(inst));
  }
}
BENCHMARK(BM_BuildPairPoolBackend)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_GreedyAssignment(benchmark::State& state) {
  const RangeQualityModel quality(1.0, 2.0, 3);
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  const auto inst = BenchInstance(static_cast<int>(state.range(0)), &quality,
                                  &workers, &tasks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunGreedy(inst, 0.5));
  }
}
BENCHMARK(BM_GreedyAssignment)->Arg(50)->Arg(100)->Arg(200);

// Observe + PredictNext over 10 instances of synthetic arrivals, with the
// argument's arrivals per side per instance: 13 is stream-rush's rate per
// epoch, 100 batch-dc's, 400 a dense regime where sampling dominates. The
// `epoch` counter is the time of one instance.
void BM_GridPrediction(benchmark::State& state) {
  constexpr int kInstances = 10;
  SyntheticConfig config;
  config.num_workers = state.range(0) * kInstances;
  config.num_tasks = state.range(0) * kInstances;
  config.num_instances = kInstances;
  const ArrivalStream stream = GenerateSynthetic(config);
  PredictionConfig pconfig;
  pconfig.gamma = 20;
  pconfig.window = 3;
  for (auto _ : state) {
    GridPredictor predictor(pconfig);
    for (int p = 0; p < stream.num_instances(); ++p) {
      predictor.Observe(stream.workers[static_cast<size_t>(p)],
                        stream.tasks[static_cast<size_t>(p)]);
      benchmark::DoNotOptimize(predictor.PredictNext());
    }
  }
  state.counters["epoch"] = benchmark::Counter(
      kInstances, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_GridPrediction)->Arg(13)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();

// Reproduces paper Table I together with Examples 1 and 2 (Figs. 1-2):
// prints the worker-and-task pair table and verifies that the local
// (no-prediction) strategy reaches overall quality 7 at cost 5 while the
// prediction-based strategy reaches quality 8 at cost 4.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/greedy.h"
#include "core/valid_pairs.h"

namespace {

using namespace mqa;

struct PairSpec {
  int worker;
  int task;
  double dist;
  double quality;
};

const std::vector<PairSpec> kTableI = {
    {0, 0, 1, 3}, {0, 1, 2, 2}, {0, 2, 4, 2}, {1, 0, 1, 4}, {1, 1, 3, 2},
    {1, 2, 2, 1}, {2, 0, 5, 2}, {2, 1, 3, 1}, {2, 2, 1, 2}};

PairPool MakePool(const std::vector<PairSpec>& specs,
                  const std::vector<bool>& predicted) {
  PairPoolBuilder builder(3, 3);
  for (size_t k = 0; k < specs.size(); ++k) {
    CandidatePair p;
    p.worker_index = specs[k].worker;
    p.task_index = specs[k].task;
    p.cost = Uncertain::Fixed(specs[k].dist);
    p.quality = Uncertain::Fixed(specs[k].quality);
    p.involves_predicted = predicted[k];
    builder.Add(p);
  }
  return std::move(builder).Build();
}

struct Outcome {
  double quality = 0.0;
  double cost = 0.0;
};

Outcome Emitted(const PairPool& pool) {
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  const std::vector<int32_t> selected =
      GreedySelect(pool, ids, /*budget=*/100.0, /*delta=*/0.5);
  Outcome out;
  for (const int32_t id : selected) {
    if (pool.InvolvesPredicted(id)) continue;
    out.quality += pool.QualityMean(id);
    out.cost += pool.CostMean(id);
  }
  return out;
}

std::vector<PairSpec> Filter(const std::vector<PairSpec>& specs,
                             const std::vector<std::pair<int, int>>& keep) {
  std::vector<PairSpec> out;
  for (const auto& s : specs) {
    for (const auto& [w, t] : keep) {
      if (s.worker == w && s.task == t) out.push_back(s);
    }
  }
  return out;
}

}  // namespace

int main() {
  mqa::bench::InitObservability();
  std::printf("=== Table I + Examples 1/2 — the paper's running example "
              "===\n\n");
  std::printf("%-14s %10s %14s\n", "pair <wi,tj>", "distance", "quality");
  for (const auto& s : kTableI) {
    std::printf("<w%d, t%d>      %10.0f %14.0f\n", s.worker + 1, s.task + 1,
                s.dist, s.quality);
  }

  // Local strategy (Example 1).
  const auto lp = Filter(kTableI, {{0, 0}, {0, 1}});
  const Outcome l1 = Emitted(MakePool(lp, std::vector<bool>(lp.size(), false)));
  const auto lp1 = Filter(kTableI, {{1, 1}, {1, 2}, {2, 1}, {2, 2}});
  const Outcome l2 =
      Emitted(MakePool(lp1, std::vector<bool>(lp1.size(), false)));

  // Prediction strategy (Example 2).
  std::vector<bool> predicted;
  for (const auto& s : kTableI) {
    predicted.push_back(!(s.worker == 0 && s.task <= 1));
  }
  const Outcome g1 = Emitted(MakePool(kTableI, predicted));
  const auto gp1 = Filter(kTableI, {{1, 0}, {1, 2}, {2, 0}, {2, 2}});
  const Outcome g2 =
      Emitted(MakePool(gp1, std::vector<bool>(gp1.size(), false)));

  std::printf("\n%-28s %10s %10s (paper)\n", "strategy", "quality", "cost");
  std::printf("%-28s %10.0f %10.0f (7 / 5)\n", "local, no prediction",
              l1.quality + l2.quality, l1.cost + l2.cost);
  std::printf("%-28s %10.0f %10.0f (8 / 4)\n", "MQA with prediction",
              g1.quality + g2.quality, g1.cost + g2.cost);

  MQA_CHECK(l1.quality + l2.quality == 7.0 && l1.cost + l2.cost == 5.0)
      << "local strategy diverged from the paper's Example 1";
  MQA_CHECK(g1.quality + g2.quality == 8.0 && g1.cost + g2.cost == 4.0)
      << "prediction strategy diverged from the paper's Example 2";
  std::printf("\nBoth outcomes match the paper exactly.\n");
  return 0;
}

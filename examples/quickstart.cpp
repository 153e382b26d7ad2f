// Quickstart: the paper's running example (Tables I, Examples 1 & 2).
//
// Three workers w1..w3 and three tasks t1..t3 arrive over two time
// instances. At instance p only w1, t1, t2 are present; w2, w3, t3 arrive
// at p+1. A locally-optimal (no-prediction) strategy reaches overall
// quality 7 at traveling cost 5; with (perfect) predictions the MQA greedy
// reaches quality 8 at cost 4 — the paper's Example 2.
//
// Table I's distance matrix is not realizable in Euclidean space (it
// violates the triangle inequality), so this example drives the greedy
// engine at the pair level, which is also the extension point for custom
// cost models.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/valid_pairs.h"

namespace {

using mqa::CandidatePair;
using mqa::GreedySelect;
using mqa::PairPool;
using mqa::PairPoolBuilder;
using mqa::PairRef;
using mqa::Uncertain;

struct PairSpec {
  int worker;   // 0-based: w1 = 0
  int task;     // 0-based: t1 = 0
  double cost;  // Table I distance * unit price (C = 1)
  double quality;
};

// Table I of the paper.
const std::vector<PairSpec> kTableI = {
    {0, 0, 1, 3}, {0, 1, 2, 2}, {0, 2, 4, 2}, {1, 0, 1, 4}, {1, 1, 3, 2},
    {1, 2, 2, 1}, {2, 0, 5, 2}, {2, 1, 3, 1}, {2, 2, 1, 2}};

PairPool MakePool(const std::vector<PairSpec>& specs,
                  const std::vector<bool>& involves_predicted) {
  PairPoolBuilder builder(3, 3);
  for (size_t k = 0; k < specs.size(); ++k) {
    CandidatePair p;
    p.worker_index = specs[k].worker;
    p.task_index = specs[k].task;
    p.cost = Uncertain::Fixed(specs[k].cost);
    p.quality = Uncertain::Fixed(specs[k].quality);
    p.involves_predicted = involves_predicted[k];
    builder.Add(p);
  }
  return std::move(builder).Build();
}

struct Outcome {
  double quality = 0.0;
  double cost = 0.0;
};

// Runs one greedy round over `pool` and accumulates the emitted
// current-current pairs; predicted selections steer but are not emitted.
Outcome RunRound(const PairPool& pool, const char* label) {
  std::vector<int32_t> ids(pool.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  const std::vector<int32_t> selected =
      GreedySelect(pool, ids, /*budget=*/100.0, /*delta=*/0.5);

  Outcome out;
  for (const int32_t id : selected) {
    const PairRef p = pool.pair(id);
    if (p.involves_predicted()) {
      std::printf("  %s: reserve  <w%d, t%d>  (predicted; not emitted)\n",
                  label, p.worker_index() + 1, p.task_index() + 1);
      continue;
    }
    std::printf("  %s: assign   <w%d, t%d>  cost=%.0f quality=%.0f\n", label,
                p.worker_index() + 1, p.task_index() + 1, p.cost_mean(),
                p.quality_mean());
    out.quality += p.quality_mean();
    out.cost += p.cost_mean();
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
  std::printf("MQA quickstart — the paper's running example (Table I)\n\n");

  // ---------------------------------------------------- local strategy
  std::printf("Local strategy (no prediction):\n");
  // Instance p: only w1 with t1, t2.
  const auto local_p = Filter(kTableI, {{0, 0}, {0, 1}});
  const Outcome p1 =
      RunRound(MakePool(local_p, std::vector<bool>(local_p.size(), false)),
               "p  ");
  // Instance p+1: w2, w3 with t2 (carried), t3.
  const auto local_p1 = Filter(kTableI, {{1, 1}, {1, 2}, {2, 1}, {2, 2}});
  const Outcome p2 =
      RunRound(MakePool(local_p1, std::vector<bool>(local_p1.size(), false)),
               "p+1");
  std::printf("  => overall quality %.0f, traveling cost %.0f\n\n",
              p1.quality + p2.quality, p1.cost + p2.cost);

  // ----------------------------------------------- prediction strategy
  std::printf("Prediction-based strategy (MQA):\n");
  // Instance p: w1, t1, t2 current; w2, w3, t3 predicted.
  std::vector<bool> predicted;
  for (const auto& s : kTableI) {
    const bool current = s.worker == 0 && s.task <= 1;
    predicted.push_back(!current);
  }
  const Outcome q1 = RunRound(MakePool(kTableI, predicted), "p  ");
  // Instance p+1: w2, w3 current with t1 (carried over!) and t3.
  const auto pred_p1 = Filter(kTableI, {{1, 0}, {1, 2}, {2, 0}, {2, 2}});
  const Outcome q2 =
      RunRound(MakePool(pred_p1, std::vector<bool>(pred_p1.size(), false)),
               "p+1");
  std::printf("  => overall quality %.0f, traveling cost %.0f\n\n",
              q1.quality + q2.quality, q1.cost + q2.cost);

  std::printf(
      "Prediction steered w1 away from t1 (reserved for the stronger,\n"
      "incoming w2), matching the paper: quality 7->8, cost 5->4.\n");
  return 0;
}

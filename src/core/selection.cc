#include "core/selection.h"

#include <cmath>
#include <limits>

#include "core/comparators.h"

namespace mqa {

int32_t SelectBestPair(const PairPool& pool,
                       const std::vector<int32_t>& candidate_ids,
                       const BudgetTracker& budget) {
  // Eq. 9 budget filter.
  std::vector<int32_t> admissible;
  admissible.reserve(candidate_ids.size());
  for (const int32_t id : candidate_ids) {
    if (budget.Admits(pool.pair(id))) {
      admissible.push_back(id);
    }
  }
  if (admissible.empty()) return -1;
  if (admissible.size() == 1) return admissible[0];

  // Eq. 10 in log space: log Pr_q,max = sum_log Pr{q_i > q_other}.
  int32_t best_id = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const int32_t id : admissible) {
    const PairRef pair = pool.pair(id);
    double log_score = 0.0;
    for (const int32_t other_id : admissible) {
      if (other_id == id) continue;
      const double pr = ProbQualityGreater(pair, pool.pair(other_id));
      if (pr <= 0.0) {
        log_score = -std::numeric_limits<double>::infinity();
        break;
      }
      log_score += std::log(pr);
    }
    const double cost = pair.cost_mean();
    const bool better =
        log_score > best_score ||
        (log_score == best_score &&
         (cost < best_cost || (cost == best_cost && id < best_id)));
    if (better) {
      best_score = log_score;
      best_cost = cost;
      best_id = id;
    }
  }
  return best_id;
}

}  // namespace mqa

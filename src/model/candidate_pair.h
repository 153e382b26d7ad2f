#ifndef MQA_MODEL_CANDIDATE_PAIR_H_
#define MQA_MODEL_CANDIDATE_PAIR_H_

#include <cstdint>

#include "stats/uncertain.h"

namespace mqa {

/// A materialized valid worker-and-task assignment pair <w̃_i, t̃_j> over
/// current or predicted entities (paper Section III-B). Indices refer to
/// the worker and task vectors of the ProblemInstance the pair was built
/// from.
///
/// Algorithms no longer traffic in this struct: the pool stores pairs as
/// SoA columns and hands out PairRef views (see core/pair_pool.h).
/// CandidatePair remains the materialized value type — the input to
/// hand-built pools (PairPoolBuilder::Add) and the output of
/// PairPool::GetPair for tests and cold paths.
struct CandidatePair {
  int32_t worker_index = -1;
  int32_t task_index = -1;

  /// Traveling cost c̃_ij = C * dist. Fixed for current-current pairs;
  /// a random variable otherwise.
  Uncertain cost;

  /// Quality score q̃_ij. Fixed for current-current pairs; a sample-based
  /// random variable otherwise (Cases 1-3).
  Uncertain quality;

  /// Existence probability p̂_ij of the pair (1 for current-current pairs).
  double existence = 1.0;

  /// True when either endpoint is predicted.
  bool involves_predicted = false;

  /// The quality increase used in Eq. 7/10 comparisons. Following the
  /// paper's pseudo-code this is the *raw* quality distribution — the
  /// existence probability p̂ is reported but not folded in (an
  /// unfulfilled reservation only delays a task, which carries over to
  /// the next instance, so thinning would systematically under-rank
  /// predicted pairs and suppress the WP-over-WoP steering effect; see
  /// docs/DEVIATIONS.md, row D3). ExistenceThinnedQuality() exposes the
  /// thinned variant for callers that want the conservative ranking.
  const Uncertain& EffectiveQuality() const { return quality; }

  /// The quality thinned by an independent Bernoulli(existence) trial —
  /// the conservative interpretation of p̂_ij.
  Uncertain ExistenceThinnedQuality() const {
    return involves_predicted ? quality.BernoulliThin(existence) : quality;
  }
};

}  // namespace mqa

#endif  // MQA_MODEL_CANDIDATE_PAIR_H_

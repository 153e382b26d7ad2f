#ifndef MQA_CORE_EXACT_ASSIGNER_H_
#define MQA_CORE_EXACT_ASSIGNER_H_

#include "common/result.h"
#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// Default instance-size cap of the exhaustive solver (per side).
inline constexpr int kExactMaxEntities = 12;

/// Exhaustive optimal solver over *current* workers and tasks: maximizes
/// the total quality of a valid matching whose cost fits the budget.
/// MQA is NP-hard (paper Lemma 2.1), so this explores the full
/// (n+1)^m-ish space with branch-and-bound pruning — usable only as a
/// test oracle on tiny instances. Returns InvalidArgument when the
/// instance exceeds `max_entities` on either side.
Result<AssignmentResult> RunExact(const ProblemInstance& instance,
                                  int max_entities = kExactMaxEntities);

}  // namespace mqa

#endif  // MQA_CORE_EXACT_ASSIGNER_H_

#ifndef MQA_CORE_RANDOM_ASSIGNER_H_
#define MQA_CORE_RANDOM_ASSIGNER_H_

#include <cstdint>

#include "core/valid_pairs.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// The paper's RANDOM baseline: scans valid pairs in a random order and
/// takes every pair whose worker and task are still free and whose cost
/// fits the remaining budget — no quality optimization at all. With
/// prediction enabled the shuffle also covers predicted pairs (these
/// consume the next-instance pot and are dropped from the output), which
/// is what the paper's RANDOM_WP variant does.
AssignmentResult RunRandom(const ProblemInstance& instance, double delta,
                           uint64_t seed);

}  // namespace mqa

#endif  // MQA_CORE_RANDOM_ASSIGNER_H_

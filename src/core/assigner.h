#ifndef MQA_CORE_ASSIGNER_H_
#define MQA_CORE_ASSIGNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "model/assignment.h"
#include "model/problem_instance.h"

namespace mqa {

/// Which MQA algorithm to run.
enum class AssignerKind {
  kGreedy,         // MQA_Greedy (paper Section IV)
  kDivideConquer,  // MQA_D&C (paper Section V)
  kRandom,         // RANDOM baseline (paper Section VI)
  kExact,          // exhaustive oracle, tiny instances only
};

/// Short display name ("GREEDY", "D&C", "RANDOM", "EXACT").
const char* AssignerKindToString(AssignerKind kind);

/// Tunables shared by the assigners. The execution context (task index,
/// thread pool, pool storage and stats sinks) travels on the
/// ProblemInstance instead; the simulator sets it every epoch.
struct AssignerOptions {
  /// Eq. 9 confidence level delta for the chance-constrained budget.
  double delta = 0.5;

  /// Divide-and-conquer branching factor g; 0 selects g per subproblem
  /// via the Appendix-C cost model.
  int dc_branching = 0;

  /// Seed for the RANDOM baseline's shuffle.
  uint64_t seed = 42;
};

/// A one-instance MQA solver. Implementations are stateless across calls
/// except for the RANDOM baseline's generator, which advances per call so
/// repeated runs explore different shuffles deterministically from the
/// seed.
class Assigner {
 public:
  virtual ~Assigner() = default;

  /// Computes the task assignment instance set I_p for `instance`. The
  /// result only contains current-current pairs and always satisfies the
  /// Def. 3/4 validity and budget constraints.
  virtual Result<AssignmentResult> Assign(const ProblemInstance& instance) = 0;

  /// Display name of the algorithm.
  virtual const char* name() const = 0;
};

/// Factory for the built-in assigners.
std::unique_ptr<Assigner> CreateAssigner(AssignerKind kind,
                                         const AssignerOptions& options = {});

}  // namespace mqa

#endif  // MQA_CORE_ASSIGNER_H_

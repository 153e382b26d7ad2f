#ifndef MQA_CORE_ASSIGNER_H_
#define MQA_CORE_ASSIGNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "index/spatial_index.h"
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

/// Tunables shared by the assigners.
struct AssignerOptions {
  /// Eq. 9 confidence level delta for the chance-constrained budget.
  double delta = 0.5;

  /// Divide-and-conquer branching factor g; 0 selects g per subproblem
  /// via the Appendix-C cost model.
  int dc_branching = 0;

  /// Seed for the RANDOM baseline's shuffle.
  uint64_t seed = 42;

  /// Spatial-index backend for valid-pair generation (see
  /// src/index/README.md). Ignored when the instance carries a prebuilt
  /// task index (ProblemInstance::task_index), as the simulator's
  /// incrementally maintained index does.
  IndexBackend index_backend = IndexBackend::kAuto;

  /// Total threads (including the calling one) the assigner fans work
  /// across: sharded pair generation for every algorithm, plus the
  /// subproblem solves of the divide-and-conquer recursion. Any count
  /// produces byte-identical assignments — thread count only changes
  /// wall-clock time (the determinism contract of src/exec/README.md,
  /// property-tested in tests/parallel_property_test.cc).
  ///
  /// Precedence: > 1 gives the assigner its own pool, which overrides
  /// any pool on the instance; <= 1 (the default) means "no pool of my
  /// own", in which case a pool the instance carries
  /// (SimulatorConfig::num_threads) still applies. A fully sequential
  /// run therefore needs both knobs at their defaults.
  int num_threads = 1;
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

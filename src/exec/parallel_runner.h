#ifndef MQA_EXEC_PARALLEL_RUNNER_H_
#define MQA_EXEC_PARALLEL_RUNNER_H_

#include <memory>

#include "exec/thread_pool.h"

namespace mqa {

/// Owner and entry point of the parallel execution subsystem: holds the
/// ThreadPool an assigner or simulator fans work across, and provides the
/// deterministic fan-out primitive the pipeline stages share.
///
/// `num_threads <= 1` constructs a runner with no pool at all — every
/// consumer then takes its exact sequential code path, which is the
/// determinism anchor the property tests compare against.
///
/// Determinism contract (see src/exec/README.md): every result element is
/// a pure function of the input written into its own slot (a worker's
/// candidates, a D&C subproblem's selection), however the work is split,
/// and every reduction happens afterwards in stable index order on one
/// thread. Thread count therefore changes wall-clock time and nothing
/// else — assignments, scores, and simulator metrics are byte-identical
/// across {1, 2, 4, 8, ...} threads.
class ParallelRunner {
 public:
  /// A runner executing on `num_threads` total threads (the caller plus
  /// num_threads - 1 pool workers); <= 1 means strictly sequential.
  explicit ParallelRunner(int num_threads);
  ~ParallelRunner();

  /// The pool, or nullptr when sequential. Consumers treat a null pool as
  /// "run the sequential code path".
  ThreadPool* pool() const { return pool_.get(); }

  int num_threads() const { return pool_ ? pool_->num_threads() : 1; }

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1
};

}  // namespace mqa

#endif  // MQA_EXEC_PARALLEL_RUNNER_H_

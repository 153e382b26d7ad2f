#ifndef MQA_SIM_SIMULATOR_CONFIG_H_
#define MQA_SIM_SIMULATOR_CONFIG_H_

#include "prediction/predictor.h"

namespace mqa {

/// Configuration of the MQA_Framework loop (paper Fig. 3), shared by the
/// batch Simulator and the streaming engine (both drive the same
/// EpochRunner core).
struct SimulatorConfig {
  /// Per-instance traveling budget B (per assignment epoch in streaming
  /// mode — one epoch is one budgeted assignment round).
  double budget = 300.0;

  /// Unit price C per distance unit.
  double unit_price = 10.0;

  /// When false, the assigner sees only current entities (the paper's
  /// "WoP" — without prediction — straw man).
  bool use_prediction = true;

  /// Grid predictor settings (used when use_prediction).
  PredictionConfig prediction;

  /// Workers that complete a task rejoin the pool at the task's location
  /// after their travel time ("workers who finished tasks ... are also
  /// treated as new workers", paper Section II-E).
  bool workers_rejoin = true;

  /// Validate every assignment against the Def. 3/4 invariants (cheap
  /// relative to assignment; keep on except in microbenchmarks).
  bool validate_assignments = true;

  /// Ignored: no epoch loads a worker index. Kept only because
  /// pbsc_bench/bench_main.cc sets it.
  bool maintain_worker_index = false;

  /// Total threads the per-instance assignment work fans across: the
  /// simulator hands each ProblemInstance a pool through
  /// ProblemInstance::set_thread_pool, exactly like it hands the task
  /// index. <= 1 (the default) keeps every path sequential; results are
  /// byte-identical for any value (see src/exec/README.md).
  int num_threads = 1;
};

}  // namespace mqa

#endif  // MQA_SIM_SIMULATOR_CONFIG_H_

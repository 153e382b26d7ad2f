#ifndef MQA_OBS_RUN_REPORT_H_
#define MQA_OBS_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace mqa {

/// Per-instance (per-epoch) measurements recorded by the simulators and
/// the run report's epoch row. A plain struct, so this layer stays free
/// of sim/ and model/ types; sim/metrics.h re-exports it.
struct InstanceMetrics {
  /// The instance (batch) or epoch (stream) index.
  int64_t instance = 0;

  /// Available (current) entities after carryover and rejoining.
  int64_t workers_available = 0;
  int64_t tasks_available = 0;

  /// Predicted entities appended to the assigner's input.
  int64_t predicted_workers = 0;
  int64_t predicted_tasks = 0;

  int64_t assigned = 0;
  double quality = 0.0;
  double cost = 0.0;

  /// FNV-1a fingerprint of the epoch's assignment (pair indices plus the
  /// quality/cost bit patterns). A pure function of the computed result,
  /// so it is covered by — and a cheap witness for — the byte-identity
  /// contract; run reports record it per epoch.
  uint64_t assignment_checksum = 0;

  /// Wall-clock seconds from the start of prediction to the end of
  /// assignment (the paper's "running time per time instance"); the run
  /// report writes it as wall_seconds. Despite the name it is not CPU
  /// time.
  double cpu_seconds = 0.0;

  /// Per-phase wall-clock breakdown in epoch lifecycle order (see
  /// docs/OBSERVABILITY.md for the span taxonomy these mirror). The
  /// first five add up to cpu_seconds. Timing fields describe execution,
  /// not the computed assignment — like the process fields below they are
  /// excluded from the byte-identity contract.
  double predict_seconds = 0.0;     // prediction scoring + PredictNext
  double assemble_seconds = 0.0;    // instance vector assembly
  double index_seconds = 0.0;       // task index load
  double pool_build_seconds = 0.0;  // BuildPairPool inside Assign
  double assign_seconds = 0.0;      // Assigner::Assign minus the pool build
  double validate_seconds = 0.0;    // ValidateAssignment (0 when disabled)
  double apply_seconds = 0.0;       // consumed marking + rejoin computation

  /// Streaming-engine-only phase (0 in batch mode, keeping batch and
  /// stream reports field-compatible): event-queue drain into the epoch.
  double ingest_seconds = 0.0;

  /// Fig. 10 relative errors of the *previous* instance's prediction
  /// against this instance's actual arrivals (-1 when no prediction was
  /// made, e.g. at instance 0 or when prediction is disabled).
  double worker_prediction_error = -1.0;
  double task_prediction_error = -1.0;

  /// Pair-pool measurements of the epoch's assignment (written by
  /// BuildPairPool as it returns; see core/pair_pool.h). Deterministic.
  int64_t pool_pairs = 0;
  int64_t pool_predicted_pairs = 0;
  int64_t pool_bytes = 0;

  /// Never written, always 0: kept only because pbsc_bench reads it.
  double pool_lazy_skipped_fraction = 0.0;

  /// The greedy selection loop's work this epoch (core/greedy.h,
  /// GreedyStats), summed over every GreedySelect call the assigner made
  /// — one for MQA_Greedy, one per D&C leaf and budget reselection:
  /// candidate sets S_p built, their summed and largest sizes, and pairs
  /// retired dead. Deterministic (the same for any thread count); 0 for
  /// assigners that never run the loop (random, exact).
  int64_t greedy_iterations = 0;
  int64_t greedy_candidates = 0;
  int64_t greedy_max_candidates = 0;
  int64_t greedy_retired_pairs = 0;

  /// The process as the epoch ends (obs/process_stats.h, sampled after
  /// the apply phase): resident bytes, peak resident bytes (never below
  /// rss_bytes: the larger of getrusage's peak and every RSS the runner
  /// has sampled), and cumulative user + system CPU seconds since
  /// process start. Execution state like the timing fields — excluded
  /// from the byte-identity contract. 0 where the platform offers no
  /// reading.
  int64_t rss_bytes = 0;
  int64_t peak_rss_bytes = 0;
  double process_cpu_seconds = 0.0;
};

/// The unified run artifact and the only post-mortem one: a JSON file
/// joining everything needed to reproduce and attribute a measurement —
/// config, git describe, machine/OS identity and one InstanceMetrics row
/// per epoch (results, assignment checksum, phase times, pool, greedy
/// and process numbers).
/// scripts/profile_report.py joins it with a trace; check_trace.py
/// --report validates it. Schema: "mqa-run-report-v8", documented in
/// docs/OBSERVABILITY.md.
///
/// Write-only like the tracer: recording never feeds values back into
/// the computation, so a reporting run stays byte-identical to a bare
/// one.
class RunReport {
 public:
  static RunReport& Get();

  /// Records one config key. String values are JSON-quoted; the int64 /
  /// double overloads store bare numbers. Last write per key wins; keys
  /// export sorted.
  void SetConfig(const std::string& key, const std::string& value);
  void SetConfig(const std::string& key, int64_t value);
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, bool value);

  /// Appends one epoch row (called by the batch and stream runners for
  /// every epoch; cheap, one mutex + vector push).
  void RecordEpoch(const InstanceMetrics& row);

  /// Serializes the report (sorted keys, deterministic given the same
  /// recorded state).
  void WriteJson(std::ostream& out) const;
  std::string ToJsonString() const;
  Status WriteJsonFile(const std::string& path) const;

  /// Drops config and epoch rows (tests).
  void Reset();

  int64_t epoch_count() const;

  /// The {"git": {...}, "machine": {...}} provenance pair as a compact
  /// JSON fragment (no surrounding braces) — embedded verbatim by the
  /// benches into BENCH_*.json so regression artifacts carry the same
  /// identity block as run reports.
  static std::string ProvenanceFragment();

  /// If MQA_RUN_REPORT names a file, registers an atexit hook writing
  /// the report there — the zero-plumbing surface for benches.
  /// Idempotent.
  static void InitFromEnv();

 private:
  RunReport() = default;
  ~RunReport() = delete;  // intentionally leaked, like the Tracer

  mutable std::mutex mu_;
  std::map<std::string, std::string> config_;  // values are JSON literals
  std::vector<InstanceMetrics> epochs_;
};

}  // namespace mqa

#endif  // MQA_OBS_RUN_REPORT_H_

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

/// One epoch's row in the run report. A layering-clean mirror of the
/// fields sim::InstanceMetrics / stream reports expose — src/obs must
/// not depend on src/sim, so the runners copy into this POD.
struct EpochReportRow {
  int64_t instance = 0;
  int64_t assigned = 0;
  double quality = 0.0;
  double cost = 0.0;
  uint64_t assignment_checksum = 0;
  double wall_seconds = 0.0;
  // Phase breakdown (epoch lifecycle order; stream-only phases stay 0 in
  // batch mode).
  double predict_seconds = 0.0;
  double assemble_seconds = 0.0;
  double index_seconds = 0.0;
  double assign_seconds = 0.0;
  double validate_seconds = 0.0;
  double apply_seconds = 0.0;
  double ingest_seconds = 0.0;
  double backlog_scan_seconds = 0.0;
};

/// The unified run artifact: one JSON file joining everything needed to
/// reproduce and attribute a measurement — config, git describe,
/// machine/OS identity, per-epoch results with assignment checksums,
/// per-phase wall-time histograms (the mqa.phase.* family), counter
/// aggregates with derived rates (IPC, miss rates), and the full metrics
/// registry. BENCH_*.json and check_bench_regression.py graduate onto
/// this provenance layer; scripts/profile_report.py joins it with a
/// trace. Schema: "mqa-run-report-v1", documented in
/// docs/OBSERVABILITY.md.
///
/// Write-only like the tracer and registry: recording never feeds values
/// back into the computation, so a reporting run stays byte-identical to
/// a bare one.
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
  void RecordEpoch(const EpochReportRow& row);

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
  std::vector<EpochReportRow> epochs_;
};

}  // namespace mqa

#endif  // MQA_OBS_RUN_REPORT_H_

#include "sim/epoch_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "core/greedy.h"
#include "core/pair_pool.h"
#include "model/assignment.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace mqa {

namespace {

uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a fingerprint of the assignment: the pair list in emission order
/// plus the quality/cost totals bit-for-bit. Deterministic runs agree on
/// it exactly; run reports record it per epoch as a cheap cross-machine
/// byte-identity witness.
uint64_t AssignmentChecksum(const AssignmentResult& result) {
  uint64_t h = 14695981039346656037ULL;
  for (const Assignment& a : result.pairs) {
    h = Fnv1aWord(h, static_cast<uint64_t>(a.worker_index));
    h = Fnv1aWord(h, static_cast<uint64_t>(a.task_index));
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &result.total_quality, sizeof(bits));
  h = Fnv1aWord(h, bits);
  std::memcpy(&bits, &result.total_cost, sizeof(bits));
  h = Fnv1aWord(h, bits);
  return h;
}

}  // namespace

EpochRunner::EpochRunner(const SimulatorConfig& config,
                         const QualityModel* quality)
    : config_(config),
      quality_(quality),
      predictor_(config.prediction,
                 MakeCountPredictor(config.prediction.predictor)),
      // Pool shared by all epochs of the run (threads spin up once); the
      // assigner sees it through ProblemInstance::thread_pool, like the
      // task index. Sequential configs carry a null pool.
      runner_(config.num_threads) {
  MQA_CHECK(quality != nullptr) << "quality model required";
}

Result<EpochOutcome> EpochRunner::RunEpoch(
    int64_t epoch_index, const std::vector<Worker>& new_workers,
    const std::vector<Task>& new_tasks,
    const std::vector<Worker>& available_workers,
    const std::vector<Task>& available_tasks, bool predict_next,
    Assigner* assigner) {
  if (assigner == nullptr) {
    return Status::InvalidArgument("assigner required");
  }
  EpochOutcome outcome;
  InstanceMetrics& metrics = outcome.metrics;
  metrics.instance = epoch_index;

  MQA_TRACE_SPAN_ARG("epoch", epoch_index);

  const auto t_start = std::chrono::steady_clock::now();
  // Phase stopwatch: each TakePhase() returns the seconds since the last
  // call (or t_start) and restarts the lap.
  auto t_phase = t_start;
  const auto TakePhase = [&t_phase] {
    const auto now = std::chrono::steady_clock::now();
    const double lap = std::chrono::duration<double>(now - t_phase).count();
    t_phase = now;
    return lap;
  };

  // --- Prediction bookkeeping + next-epoch prediction (Fig. 3 line 4). ---
  Prediction prediction;
  if (config_.use_prediction) {
    MQA_TRACE_SPAN("epoch/predict");
    predictor_.Observe(new_workers, new_tasks);
    // Score the previous epoch's prediction against today's actuals, the
    // per-cell counts Observe just took.
    if (!prev_pred_worker_counts_.empty()) {
      metrics.worker_prediction_error = GridPredictor::AverageRelativeError(
          prev_pred_worker_counts_, predictor_.last_worker_counts());
      metrics.task_prediction_error = GridPredictor::AverageRelativeError(
          prev_pred_task_counts_, predictor_.last_task_counts());
    }
    if (predict_next) {
      prediction = predictor_.PredictNext();
      prev_pred_worker_counts_ = std::move(prediction.worker_cell_counts);
      prev_pred_task_counts_ = std::move(prediction.task_cell_counts);
    } else {
      prev_pred_worker_counts_.clear();
      prev_pred_task_counts_.clear();
    }
  }

  metrics.predict_seconds = TakePhase();

  // --- Assemble the assigner input (current first, then predicted). ---
  std::vector<Worker> inst_workers;
  std::vector<Task> inst_tasks;
  size_t num_current_workers = 0;
  size_t num_current_tasks = 0;
  {
    MQA_TRACE_SPAN("epoch/assemble");
    inst_workers = available_workers;
    inst_tasks = available_tasks;
    num_current_workers = inst_workers.size();
    num_current_tasks = inst_tasks.size();
    inst_workers.insert(inst_workers.end(), prediction.workers.begin(),
                        prediction.workers.end());
    inst_tasks.insert(inst_tasks.end(), prediction.tasks.begin(),
                      prediction.tasks.end());
  }
  metrics.workers_available = static_cast<int64_t>(num_current_workers);
  metrics.tasks_available = static_cast<int64_t>(num_current_tasks);
  metrics.predicted_workers = static_cast<int64_t>(prediction.workers.size());
  metrics.predicted_tasks = static_cast<int64_t>(prediction.tasks.size());
  metrics.assemble_seconds = TakePhase();

  {
    // Loaded from scratch every epoch; only the capacity of the R-tree's
    // arrays lives across epochs.
    MQA_TRACE_SPAN("epoch/index");
    task_index_cache_.BeginInstance(inst_tasks);
  }
  metrics.index_seconds = TakePhase();

  ProblemInstance instance(
      std::move(inst_workers), num_current_workers, std::move(inst_tasks),
      num_current_tasks, quality_, config_.unit_price, config_.budget);
  instance.set_task_index(task_index_cache_.view());
  instance.set_thread_pool(runner_.pool());
  // Lend the pool storage: its vectors keep their capacity across epochs.
  // The previous epoch's pool was dropped inside the last Assign —
  // assigners never retain pools — so the storage is free again.
  instance.set_pool_storage(&pool_storage_);
  PairPoolStats pool_stats;
  instance.set_pool_stats(&pool_stats);
  GreedyStats greedy_stats;
  instance.set_greedy_stats(&greedy_stats);

  // --- Assign (line 5). ---
  {
    MQA_TRACE_SPAN("epoch/assign");
    MQA_ASSIGN_OR_RETURN(outcome.result, assigner->Assign(instance));
  }
  // The pool build runs inside Assign but is its own phase: the five laps
  // predict + assemble + index + pool_build + assign add up to
  // cpu_seconds.
  metrics.pool_build_seconds = pool_stats.build_seconds;
  metrics.assign_seconds = TakePhase() - metrics.pool_build_seconds;
  metrics.cpu_seconds =
      std::chrono::duration<double>(t_phase - t_start).count();
  metrics.pool_pairs = pool_stats.pairs;
  metrics.pool_predicted_pairs = pool_stats.predicted_pairs;
  metrics.pool_bytes = pool_stats.pool_bytes;
  outcome.covered_tasks = pool_stats.covered_tasks;
  metrics.greedy_iterations = greedy_stats.iterations;
  metrics.greedy_candidates = greedy_stats.candidates;
  metrics.greedy_max_candidates = greedy_stats.max_candidates;
  metrics.greedy_retired_pairs = greedy_stats.retired_pairs;

  if (config_.validate_assignments) {
    MQA_TRACE_SPAN("epoch/validate");
    MQA_RETURN_NOT_OK(ValidateAssignment(instance, outcome.result));
  }
  metrics.validate_seconds = TakePhase();
  metrics.assigned = static_cast<int64_t>(outcome.result.pairs.size());
  metrics.quality = outcome.result.total_quality;
  metrics.cost = outcome.result.total_cost;
  metrics.assignment_checksum = AssignmentChecksum(outcome.result);

  // --- Mark consumed entities and compute rejoins (lines 6-7). ---
  MQA_TRACE_SPAN("epoch/apply");
  outcome.worker_assigned.assign(available_workers.size(), 0);
  outcome.task_assigned.assign(available_tasks.size(), 0);
  for (const Assignment& a : outcome.result.pairs) {
    // Assigners only emit current-current pairs, so the indices address
    // the available prefix of the instance vectors. Checked even with
    // validate_assignments off: an out-of-contract index must die loudly
    // here, not corrupt the marking vectors.
    MQA_CHECK(a.worker_index >= 0 &&
              static_cast<size_t>(a.worker_index) < available_workers.size())
        << "assignment names non-current worker " << a.worker_index;
    MQA_CHECK(a.task_index >= 0 &&
              static_cast<size_t>(a.task_index) < available_tasks.size())
        << "assignment names non-current task " << a.task_index;
    outcome.worker_assigned[static_cast<size_t>(a.worker_index)] = 1;
    outcome.task_assigned[static_cast<size_t>(a.task_index)] = 1;

    if (config_.workers_rejoin) {
      const Worker& w =
          instance.workers()[static_cast<size_t>(a.worker_index)];
      const Task& t = instance.tasks()[static_cast<size_t>(a.task_index)];
      const double travel =
          Distance(w.Center(), t.Center()) / std::max(w.velocity, 1e-9);
      EpochOutcome::Rejoin rejoin;
      rejoin.worker = w;
      rejoin.worker.location = BBox::FromPoint(t.Center());
      rejoin.offset = std::max<int64_t>(
          1, static_cast<int64_t>(std::ceil(travel / kInstanceDuration)));
      outcome.rejoins.push_back(std::move(rejoin));
    }
  }
  metrics.apply_seconds = TakePhase();

  // Process footprint as the epoch ends, sampled after the last lap so
  // the read stays outside wall_seconds and the phase times. getrusage's
  // peak comes from the kernel's approximate per-CPU RSS counters and can
  // read below the exact statm RSS, so the peak also covers every RSS
  // this runner has sampled.
  const ProcessStats process = ReadProcessStats();
  max_sampled_rss_bytes_ = std::max(max_sampled_rss_bytes_, process.rss_bytes);
  metrics.rss_bytes = process.rss_bytes;
  metrics.peak_rss_bytes =
      std::max(process.peak_rss_bytes, max_sampled_rss_bytes_);
  metrics.process_cpu_seconds = process.cpu_seconds();

  return outcome;
}

}  // namespace mqa

// The streaming engine's determinism anchor: fed the events of a batch
// ArrivalStream and the per-instance epoch policy, StreamingSimulator
// must reproduce the batch Simulator byte-for-byte — identical assignment
// pairs, identical quality/cost bits, identical per-instance metrics —
// across algorithms, thread counts, rejoin, prediction and workloads.
// Its coverable backlog, read off each epoch's pair pool, must equal a
// reference count answered by a worker R-tree.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "index/worker_index_cache.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"
#include "trace/trace.h"

namespace mqa {
namespace {

using testing_util::PropertySimConfig;
using testing_util::RecordingAssigner;
using testing_util::SmallCheckinStream;
using testing_util::SmallScenario;
using testing_util::SmallSyntheticStream;

struct StreamCase {
  AssignerKind kind;
  int threads;
  bool rejoin;
  bool prediction;
  bool checkin;
};

std::string CaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  const StreamCase& c = info.param;
  std::string name = AssignerKindToString(c.kind);
  for (char& ch : name) {
    if (ch == '&') ch = 'n';
  }
  name += "_t" + std::to_string(c.threads);
  name += c.rejoin ? "_rejoin" : "_replay";
  name += c.prediction ? "_WP" : "_WoP";
  name += c.checkin ? "_checkin" : "_synthetic";
  return name;
}

class StreamEquivalenceTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(StreamEquivalenceTest, PerInstancePolicyMatchesBatchByteForByte) {
  const StreamCase& c = GetParam();
  const ArrivalStream stream = c.checkin
                                   ? SmallCheckinStream(220, 300, 6, 7)
                                   : SmallSyntheticStream(280, 280, 6, 7);
  const RangeQualityModel quality(1.0, 2.0, 13);

  SimulatorConfig sim_config = PropertySimConfig();
  sim_config.use_prediction = c.prediction;
  sim_config.workers_rejoin = c.rejoin;
  sim_config.num_threads = c.threads;

  Simulator batch(sim_config, &quality);
  RecordingAssigner batch_assigner(CreateAssigner(c.kind, {.seed = 99}));
  const auto batch_summary = batch.Run(stream, &batch_assigner);
  ASSERT_TRUE(batch_summary.ok()) << batch_summary.status();

  StreamingConfig stream_config;
  stream_config.sim = sim_config;
  stream_config.policy.kind = EpochPolicyKind::kPerInstance;
  StreamingSimulator streaming(stream_config, &quality);
  RecordingAssigner stream_assigner(CreateAssigner(c.kind, {.seed = 99}));
  const auto stream_summary = streaming.Run(
      EventQueue::FromArrivalStream(stream), &stream_assigner);
  ASSERT_TRUE(stream_summary.ok()) << stream_summary.status();

  // --- Raw assignments: identical pair lists, bit-identical scores. ---
  const auto& batch_runs = batch_assigner.recorded();
  const auto& stream_runs = stream_assigner.recorded();
  ASSERT_EQ(batch_runs.size(), stream_runs.size());
  for (size_t p = 0; p < batch_runs.size(); ++p) {
    const AssignmentResult& a = batch_runs[p];
    const AssignmentResult& b = stream_runs[p];
    ASSERT_EQ(a.pairs.size(), b.pairs.size()) << "instance " << p;
    for (size_t k = 0; k < a.pairs.size(); ++k) {
      EXPECT_EQ(a.pairs[k].worker_index, b.pairs[k].worker_index)
          << "instance " << p << " pair " << k;
      EXPECT_EQ(a.pairs[k].task_index, b.pairs[k].task_index)
          << "instance " << p << " pair " << k;
    }
    // Bitwise, not approximate: the contract is byte-identity.
    EXPECT_EQ(std::memcmp(&a.total_quality, &b.total_quality, sizeof(double)),
              0)
        << "instance " << p;
    EXPECT_EQ(std::memcmp(&a.total_cost, &b.total_cost, sizeof(double)), 0)
        << "instance " << p;
  }

  // --- Per-instance metrics (minus wall-clock time). ---
  const auto& bm = batch_summary.value().per_instance;
  const auto& sm = stream_summary.value().per_epoch;
  ASSERT_EQ(bm.size(), sm.size());
  for (size_t p = 0; p < bm.size(); ++p) {
    const InstanceMetrics& x = bm[p];
    const InstanceMetrics& y = sm[p].instance;
    EXPECT_EQ(x.instance, y.instance);
    EXPECT_EQ(x.workers_available, y.workers_available) << "instance " << p;
    EXPECT_EQ(x.tasks_available, y.tasks_available) << "instance " << p;
    EXPECT_EQ(x.predicted_workers, y.predicted_workers) << "instance " << p;
    EXPECT_EQ(x.predicted_tasks, y.predicted_tasks) << "instance " << p;
    EXPECT_EQ(x.assigned, y.assigned) << "instance " << p;
    EXPECT_EQ(std::memcmp(&x.quality, &y.quality, sizeof(double)), 0)
        << "instance " << p;
    EXPECT_EQ(std::memcmp(&x.cost, &y.cost, sizeof(double)), 0)
        << "instance " << p;
    EXPECT_EQ(
        std::memcmp(&x.worker_prediction_error, &y.worker_prediction_error,
                    sizeof(double)),
        0)
        << "instance " << p;
    EXPECT_EQ(std::memcmp(&x.task_prediction_error, &y.task_prediction_error,
                          sizeof(double)),
              0)
        << "instance " << p;
    EXPECT_EQ(x.greedy_iterations, y.greedy_iterations) << "instance " << p;
    EXPECT_EQ(x.greedy_candidates, y.greedy_candidates) << "instance " << p;
    EXPECT_EQ(x.greedy_max_candidates, y.greedy_max_candidates)
        << "instance " << p;
    EXPECT_EQ(x.greedy_retired_pairs, y.greedy_retired_pairs)
        << "instance " << p;
    // Streaming adds the queue-side view; in per-instance mode the epoch
    // clock is the instance clock.
    EXPECT_EQ(sm[p].epoch_time, static_cast<double>(p));
    EXPECT_GE(sm[p].backlog_before, x.assigned);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamEquivalenceTest,
    ::testing::Values(
        StreamCase{AssignerKind::kGreedy, 1, false, true, false},
        StreamCase{AssignerKind::kGreedy, 4, true, true, false},
        StreamCase{AssignerKind::kGreedy, 2, true, false, false},
        StreamCase{AssignerKind::kGreedy, 1, true, true, true},
        StreamCase{AssignerKind::kDivideConquer, 1, true, true, false},
        StreamCase{AssignerKind::kDivideConquer, 4, false, true, false},
        StreamCase{AssignerKind::kDivideConquer, 2, true, true, true},
        StreamCase{AssignerKind::kRandom, 1, true, true, false},
        StreamCase{AssignerKind::kRandom, 4, true, true, false}),
    CaseName);

// --- The coverable backlog against a worker-index reference ------------

/// Delegating assigner that, before it delegates, counts the instance's
/// current tasks that some current worker can reach with a worker R-tree:
/// a WorkerIndexCache over the instance's workers (velocity in the bound
/// slot), one QueryReachable per current task with the task's deadline as
/// the velocity argument, and a hit only for a current worker whose
/// velocity is above zero (src/index/worker_index_cache.h).
class IndexCoverageAssigner : public Assigner {
 public:
  explicit IndexCoverageAssigner(std::unique_ptr<Assigner> inner)
      : inner_(std::move(inner)) {}

  Result<AssignmentResult> Assign(const ProblemInstance& instance) override {
    const std::vector<Worker>& workers = instance.workers();
    const size_t num_current_workers = instance.num_current_workers();
    index_.BeginInstance(workers);
    // At or above every current velocity, so the cap prunes none of them.
    const double velocity_cap = MaxWorkerVelocity(workers);
    int64_t covered = 0;
    for (size_t j = 0; j < instance.num_current_tasks(); ++j) {
      const Task& task = instance.tasks()[j];
      bool hit = false;
      index_.view()->QueryReachable(
          task.location, std::max(task.deadline, 0.0), velocity_cap,
          [&](int64_t id, const BBox&, double) {
            const auto i = static_cast<size_t>(id);
            if (i < num_current_workers && workers[i].velocity > 0.0) {
              hit = true;
            }
          });
      if (hit) ++covered;
    }
    counts_.push_back(covered);
    return inner_->Assign(instance);
  }
  const char* name() const override { return inner_->name(); }

  /// The reference count of every Assign call, in call order.
  const std::vector<int64_t>& counts() const { return counts_; }

 private:
  std::unique_ptr<Assigner> inner_;
  WorkerIndexCache index_;
  std::vector<int64_t> counts_;
};

/// The coverage sweep's inputs: the four scenarios, generated small, and
/// the conformance corpus.
struct CoverageSource {
  const char* name;
  ScenarioStream scenario;
  double horizon;
};

std::vector<CoverageSource> CoverageSources() {
  std::vector<CoverageSource> sources;
  for (const auto& [name, kind] :
       {std::pair{"paper", ScenarioKind::kPaper},
        std::pair{"rush-hour", ScenarioKind::kRushHour},
        std::pair{"bursty", ScenarioKind::kBursty},
        std::pair{"hotspot-drift", ScenarioKind::kHotspotDrift}}) {
    // Slow workers: at the default velocities every task a predicted
    // worker reaches is also in reach of a current one, while here some
    // task inside a predicted worker's kernel box has no current worker
    // in reach, so a count that took predicted workers' pairs would
    // differ.
    ScenarioConfig w;
    w.kind = kind;
    w.num_workers = 240;
    w.num_tasks = 240;
    w.horizon = 4.0;
    w.velocity_lo = 0.05;
    w.velocity_hi = 0.1;
    w.seed = 11;
    sources.push_back({name, GenerateScenario(w), w.horizon});
  }
  for (const char* file : {"golden_small.trace.csv", "bursty_small.trace.csv"}) {
    auto trace =
        TraceReader::ReadFile(std::string(MQA_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(trace.ok()) << file << ": " << trace.status();
    if (!trace.ok()) continue;
    sources.push_back({file, std::move(trace.value().scenario),
                       trace.value().horizon});
  }
  return sources;
}

TEST(CoverableCountTest, EqualsTheWorkerIndexCountInEveryEpoch) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  int64_t epochs = 0;
  int64_t partly_covered = 0;  // epochs with 0 < coverable < backlog
  for (const CoverageSource& source : CoverageSources()) {
    for (const AssignerKind kind :
         {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
      for (const int threads : {1, 4}) {
        for (const bool prediction : {true, false}) {
          for (const EpochPolicyKind policy :
               {EpochPolicyKind::kPerInstance,
                EpochPolicyKind::kFixedInterval}) {
            SCOPED_TRACE(std::string(source.name) + " " +
                         AssignerKindToString(kind) + " t" +
                         std::to_string(threads) +
                         (prediction ? " WP " : " WoP ") +
                         EpochPolicyKindToString(policy));
            StreamingConfig config;
            config.sim = PropertySimConfig();
            config.sim.use_prediction = prediction;
            config.sim.num_threads = threads;
            config.policy.kind = policy;
            config.policy.interval = 0.5;
            config.horizon = source.horizon;
            StreamingSimulator sim(config, &quality);
            IndexCoverageAssigner assigner(
                CreateAssigner(kind, {.seed = 99}));
            const auto summary =
                sim.Run(EventQueue::FromScenario(source.scenario), &assigner);
            ASSERT_TRUE(summary.ok()) << summary.status();
            const auto& per_epoch = summary.value().per_epoch;
            ASSERT_EQ(assigner.counts().size(), per_epoch.size());
            for (size_t k = 0; k < per_epoch.size(); ++k) {
              EXPECT_EQ(per_epoch[k].coverable_backlog, assigner.counts()[k])
                  << "epoch " << k;
              if (per_epoch[k].coverable_backlog > 0 &&
                  per_epoch[k].coverable_backlog <
                      per_epoch[k].backlog_before) {
                ++partly_covered;
              }
            }
            epochs += static_cast<int64_t>(per_epoch.size());
          }
        }
      }
    }
  }
  // The sweep must discriminate: some epochs leave tasks uncovered.
  EXPECT_GT(epochs, 0);
  EXPECT_GT(partly_covered, 0);
}

/// Returns an empty assignment without building a pool.
class NoPoolAssigner : public Assigner {
 public:
  Result<AssignmentResult> Assign(const ProblemInstance&) override {
    return AssignmentResult{};
  }
  const char* name() const override { return "NO-POOL"; }
};

TEST(CoverableCountTest, IsMinusOneWhenTheAssignerBuildsNoPool) {
  const RangeQualityModel quality(1.0, 2.0, 13);
  StreamingConfig config;
  config.sim = PropertySimConfig();
  config.horizon = 3.0;
  StreamingSimulator sim(config, &quality);
  NoPoolAssigner assigner;
  const auto summary = sim.Run(
      EventQueue::FromScenario(
          SmallScenario(ScenarioKind::kPaper, 60, 60, 3.0, 11)),
      &assigner);
  ASSERT_TRUE(summary.ok()) << summary.status();
  int64_t epochs_with_backlog = 0;
  for (const EpochStreamMetrics& e : summary.value().per_epoch) {
    EXPECT_EQ(e.coverable_backlog, -1);
    if (e.backlog_before > 0) ++epochs_with_backlog;
  }
  EXPECT_GT(epochs_with_backlog, 0);
}

}  // namespace
}  // namespace mqa

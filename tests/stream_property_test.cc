// The streaming engine's determinism anchor: fed the events of a batch
// ArrivalStream and the per-instance epoch policy, StreamingSimulator
// must reproduce the batch Simulator byte-for-byte — identical assignment
// pairs, identical quality/cost bits, identical per-instance metrics —
// across algorithms, thread counts, rejoin, prediction and workloads.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"

namespace mqa {
namespace {

using testing_util::PropertySimConfig;
using testing_util::RecordingAssigner;
using testing_util::SmallCheckinStream;
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
  // The streaming engine additionally maintains the worker index; it must
  // not change results.
  stream_config.sim.maintain_worker_index = true;
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

}  // namespace
}  // namespace mqa

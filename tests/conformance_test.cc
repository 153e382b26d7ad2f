// Differential conformance harness: every recorded trace in the corpus
// (tests/data/*.trace.csv) is swept across algorithms x index backends x
// thread counts x {batch, stream, delta-pool}, and the three determinism
// contracts are asserted via the per-epoch assignment checksums:
//
//   1. backend-equivalence   — brute/grid/rtree produce identical bits;
//   2. thread-equivalence    — any thread count produces identical bits;
//   3. batch/stream-equivalence — the streaming engine under the
//      per-instance policy reproduces the batch simulator byte-for-byte
//      on the trace's bucketed arrival stream.
//
// Continuous-time traces additionally assert that streaming replay of
// the raw timestamps is self-consistent across the whole sweep (the
// cross-engine comparison quantizes through the bucketed stream, since
// batching IS a quantization of arrival times).
//
// The seed-stability golden test pins the checksums of the checked-in
// corpus, so RNG or format drift anywhere in the pipeline fails loudly.
// To add a trace to the corpus: record one (mqa_cli --record-trace or
// scripts/import_checkins.py), copy it to tests/data/, list it in
// kCorpus below, and rebaseline (docs/TESTING.md).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "obs/metrics.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"
#include "trace/trace.h"

namespace mqa {
namespace {

using testing_util::PropertySimConfig;

/// The conformance corpus. Both files were recorded by mqa_cli
/// --record-trace: golden_small from the synthetic batch generator
/// (integer arrival times), bursty_small from the continuous-time bursty
/// scenario.
constexpr const char* kCorpus[] = {
    "golden_small.trace.csv",
    "bursty_small.trace.csv",
};

std::string DataPath(const std::string& name) {
  return std::string(MQA_TEST_DATA_DIR) + "/" + name;
}

const RangeQualityModel& Quality() {
  static const RangeQualityModel quality(1.0, 2.0, 13);
  return quality;
}

struct Variant {
  IndexBackend backend;
  int threads;
  bool delta_pool;

  std::string Name() const {
    std::string name = IndexBackendToString(backend);
    name += "_t" + std::to_string(threads);
    if (delta_pool) name += "_delta";
    return name;
  }
};

std::vector<Variant> SweepVariants() {
  std::vector<Variant> variants;
  for (const IndexBackend backend :
       {IndexBackend::kBruteForce, IndexBackend::kGrid,
        IndexBackend::kRTree}) {
    for (const int threads : {1, 4}) {
      for (const bool delta : {false, true}) {
        variants.push_back({backend, threads, delta});
      }
    }
  }
  return variants;
}

SimulatorConfig VariantConfig(const Variant& v) {
  SimulatorConfig config = PropertySimConfig();
  config.num_threads = v.threads;
  config.index_backend = v.backend;
  config.incremental_pool = v.delta_pool;
  return config;
}

std::unique_ptr<Assigner> VariantAssigner(AssignerKind kind,
                                          const Variant& v) {
  return CreateAssigner(kind, {.seed = 99, .index_backend = v.backend});
}

std::vector<uint64_t> RunBatch(const ArrivalStream& stream, AssignerKind kind,
                               const Variant& v) {
  Simulator sim(VariantConfig(v), &Quality());
  auto assigner = VariantAssigner(kind, v);
  const auto summary = sim.Run(stream, assigner.get());
  EXPECT_TRUE(summary.ok()) << summary.status();
  std::vector<uint64_t> checksums;
  if (summary.ok()) {
    for (const InstanceMetrics& m : summary.value().per_instance) {
      checksums.push_back(m.assignment_checksum);
    }
  }
  return checksums;
}

std::vector<uint64_t> RunStream(EventQueue queue, double horizon,
                                AssignerKind kind, const Variant& v) {
  StreamingConfig config;
  config.sim = VariantConfig(v);
  config.sim.maintain_worker_index = true;
  config.policy.kind = EpochPolicyKind::kPerInstance;
  config.horizon = horizon;
  StreamingSimulator sim(config, &Quality());
  auto assigner = VariantAssigner(kind, v);
  const auto summary = sim.Run(std::move(queue), assigner.get());
  EXPECT_TRUE(summary.ok()) << summary.status();
  std::vector<uint64_t> checksums;
  if (summary.ok()) {
    for (const EpochStreamMetrics& e : summary.value().per_epoch) {
      checksums.push_back(e.instance.assignment_checksum);
    }
  }
  return checksums;
}

bool HasIntegerTimesOnly(const ScenarioStream& scenario) {
  for (const TimedWorker& tw : scenario.workers) {
    if (tw.time != std::floor(tw.time)) return false;
  }
  for (const TimedTask& tt : scenario.tasks) {
    if (tt.time != std::floor(tt.time)) return false;
  }
  return true;
}

class ConformanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConformanceTest, AllContractsHoldAcrossTheSweep) {
  const auto loaded = TraceReader::ReadFile(DataPath(GetParam()));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const TraceData& trace = loaded.value();
  const ArrivalStream bucketed = trace.ToArrivalStream();
  const double bucketed_horizon = trace.num_instances();
  const bool integral = HasIntegerTimesOnly(trace.scenario);

  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer,
        AssignerKind::kRandom}) {
    SCOPED_TRACE(AssignerKindToString(kind));
    // The reference run: batch, brute force, single thread, no delta.
    const Variant reference{IndexBackend::kBruteForce, 1, false};
    const std::vector<uint64_t> expected_batch =
        RunBatch(bucketed, kind, reference);
    ASSERT_FALSE(expected_batch.empty());
    const std::vector<uint64_t> expected_continuous = RunStream(
        EventQueue::FromScenario(trace.scenario), trace.horizon, kind,
        reference);

    for (const Variant& v : SweepVariants()) {
      SCOPED_TRACE(v.Name());
      // Contracts 1, 2 (+ the delta-pool guarantee): batch bits never
      // depend on backend, threads, or incremental pool maintenance.
      EXPECT_EQ(RunBatch(bucketed, kind, v), expected_batch);
      // Contract 3: streaming the bucketed arrivals under the
      // per-instance policy reproduces the batch run byte-for-byte.
      EXPECT_EQ(RunStream(EventQueue::FromArrivalStream(bucketed),
                          bucketed_horizon, kind, v),
                expected_batch);
      // Continuous replay: same three contracts on the raw timestamps.
      EXPECT_EQ(RunStream(EventQueue::FromScenario(trace.scenario),
                          trace.horizon, kind, v),
                expected_continuous);
    }
    if (integral) {
      // Integer-time traces (recorded arrival streams) quantize to
      // themselves: the continuous replay IS the bucketed replay.
      EXPECT_EQ(expected_continuous, expected_batch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ConformanceTest,
                         ::testing::ValuesIn(kCorpus));

// ------------------------------------------------------- seed stability

/// Renders the golden block for one trace: per algorithm, the batch and
/// continuous-stream checksum rows of the canonical variant (grid, one
/// thread). Hex, one row per engine.
std::string GoldenBlock(const std::string& name) {
  const auto loaded = TraceReader::ReadFile(DataPath(name));
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return "";
  const TraceData& trace = loaded.value();
  const ArrivalStream bucketed = trace.ToArrivalStream();
  const Variant canonical{IndexBackend::kGrid, 1, false};

  std::ostringstream out;
  for (const AssignerKind kind :
       {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
    std::string algo = AssignerKindToString(kind);
    for (char& ch : algo) {
      if (ch == '&') ch = 'n';
    }
    const auto row = [&](const char* engine,
                         const std::vector<uint64_t>& checksums) {
      out << name << " " << algo << " " << engine;
      for (const uint64_t c : checksums) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(c));
        out << " " << buf;
      }
      out << "\n";
    };
    row("batch", RunBatch(bucketed, kind, canonical));
    row("stream", RunStream(EventQueue::FromScenario(trace.scenario),
                            trace.horizon, kind, canonical));
  }
  return out.str();
}

// Pins the corpus checksums. A failure here means RNG streams, the trace
// format, or an assigner changed behavior — if the change is intentional,
// rebaseline with:
//   MQA_GOLDEN_REBASELINE=1 ./conformance_test
// and commit the updated tests/data/golden_checksums.txt.
TEST(SeedStabilityGoldenTest, CorpusChecksumsMatchGoldenFile) {
  std::string actual;
  for (const char* name : kCorpus) {
    actual += GoldenBlock(name);
  }
  ASSERT_FALSE(actual.empty());

  const std::string golden_path = DataPath("golden_checksums.txt");
  if (std::getenv("MQA_GOLDEN_REBASELINE") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot rewrite " << golden_path;
    out << actual;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "rebaselined " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open())
      << golden_path
      << " missing; run with MQA_GOLDEN_REBASELINE=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "assignment checksums drifted from tests/data/golden_checksums.txt."
      << " If intentional, rerun with MQA_GOLDEN_REBASELINE=1 and commit"
      << " the updated file (docs/TESTING.md).";
}

// ------------------------------------------------- Eq. 10 evaluation cap

// SelectBestPair evaluates Eq. 10 over at most 48 admissible candidates
// (core/selection.cc). Over the whole corpus, through greedy and D&C in
// batch and stream, the cap never truncates: the largest candidate set
// S_p has 11 pairs.
TEST(GreedyCountersTest, Eq10CapNeverBindsOnCorpus) {
#if defined(MQA_OBS_DISABLED)
  GTEST_SKIP() << "metrics compiled out";
#endif
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.Reset();
  const Variant canonical{IndexBackend::kGrid, 1, false};
  for (const char* name : kCorpus) {
    const auto loaded = TraceReader::ReadFile(DataPath(name));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const TraceData& trace = loaded.value();
    for (const AssignerKind kind :
         {AssignerKind::kGreedy, AssignerKind::kDivideConquer}) {
      RunBatch(trace.ToArrivalStream(), kind, canonical);
      RunStream(EventQueue::FromScenario(trace.scenario), trace.horizon,
                kind, canonical);
    }
  }
  EXPECT_GT(registry.counter("mqa.greedy.iterations")->value(), 0);
  EXPECT_EQ(registry.counter("mqa.greedy.eq10_cap_hits")->value(), 0);
  EXPECT_EQ(registry.histogram("mqa.greedy.max_candidates")->max(), 11.0);
}

}  // namespace
}  // namespace mqa

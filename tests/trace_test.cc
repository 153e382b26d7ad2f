// mqa-trace-v1 record/replay: the round-trip guarantee (a recorded
// workload replays byte-identically through both simulators) and
// fuzz-style malformed-input coverage (every corrupt trace yields a clean
// Status, never a crash — these run under ASan/UBSan and TSan in CI).

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assigner.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"
#include "trace/trace.h"

namespace mqa {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::PropertySimConfig;
using testing_util::SmallScenario;
using testing_util::SmallSyntheticStream;

const RangeQualityModel& Quality() {
  static const RangeQualityModel quality(1.0, 2.0, 13);
  return quality;
}

std::vector<uint64_t> BatchChecksums(const ArrivalStream& stream,
                                     AssignerKind kind, int threads) {
  SimulatorConfig config = PropertySimConfig();
  config.num_threads = threads;
  Simulator sim(config, &Quality());
  auto assigner = CreateAssigner(kind, {.seed = 99});
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

std::vector<uint64_t> StreamChecksums(EventQueue queue, double horizon,
                                      AssignerKind kind, int threads) {
  StreamingConfig config;
  config.sim = PropertySimConfig();
  config.sim.num_threads = threads;
  config.policy.kind = EpochPolicyKind::kPerInstance;
  config.horizon = horizon;
  StreamingSimulator sim(config, &Quality());
  auto assigner = CreateAssigner(kind, {.seed = 99});
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

// ---------------------------------------------------------------- round trip

struct RoundTripCase {
  AssignerKind kind;
  int threads;
};

std::string RoundTripCaseName(
    const ::testing::TestParamInfo<RoundTripCase>& info) {
  const RoundTripCase& c = info.param;
  std::string name = AssignerKindToString(c.kind);
  for (char& ch : name) {
    if (ch == '&') ch = 'n';
  }
  return name + "_t" + std::to_string(c.threads);
}

class TraceRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

// A trace recorded from a batch ArrivalStream must replay to identical
// assignment checksums through BOTH engines — the acceptance bar for the
// record/replay subsystem.
TEST_P(TraceRoundTripTest, RecordedArrivalStreamReplaysByteIdentically) {
  const RoundTripCase& c = GetParam();
  const ArrivalStream original = SmallSyntheticStream(120, 120, 4, 21);

  TraceWriter writer(4.0);
  ASSERT_TRUE(writer.AddArrivalStream(original).ok());
  const auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const auto loaded = TraceReader::Parse(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const TraceData& trace = loaded.value();
  ASSERT_EQ(trace.num_instances(), 4);

  const ArrivalStream replayed = trace.ToArrivalStream();
  EXPECT_EQ(BatchChecksums(original, c.kind, c.threads),
            BatchChecksums(replayed, c.kind, c.threads));
  EXPECT_EQ(StreamChecksums(EventQueue::FromArrivalStream(original), 4.0,
                            c.kind, c.threads),
            StreamChecksums(EventQueue::FromScenario(trace.scenario), 4.0,
                            c.kind, c.threads));
}

// Continuous-time scenarios round-trip through the streaming engine the
// same way (batch replay of a continuous trace quantizes arrivals, so
// its oracle is the bucketed stream — covered by conformance_test.cc).
TEST_P(TraceRoundTripTest, RecordedScenarioReplaysByteIdentically) {
  const RoundTripCase& c = GetParam();
  const ScenarioStream original =
      SmallScenario(ScenarioKind::kBursty, 120, 120, 4.0, 21);

  TraceWriter writer(4.0);
  ASSERT_TRUE(writer.AddScenario(original).ok());
  const auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const auto loaded = TraceReader::Parse(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(StreamChecksums(EventQueue::FromScenario(original), 4.0, c.kind,
                            c.threads),
            StreamChecksums(EventQueue::FromScenario(loaded.value().scenario),
                            4.0, c.kind, c.threads));
  EXPECT_EQ(
      BatchChecksums(ScenarioToArrivalStream(original, 4), c.kind, c.threads),
      BatchChecksums(loaded.value().ToArrivalStream(), c.kind, c.threads));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceRoundTripTest,
    ::testing::Values(RoundTripCase{AssignerKind::kGreedy, 1},
                      RoundTripCase{AssignerKind::kDivideConquer, 4}),
    RoundTripCaseName);

// The serialized bytes themselves round-trip: parse(serialize(x)) re-
// serializes to the exact same bytes (this is what lets CI `cmp` a
// re-recorded replay against the original file).
TEST(TraceCsvTest, SerializationIsAFixedPoint) {
  const ScenarioStream scenario =
      SmallScenario(ScenarioKind::kRushHour, 60, 60, 3.0, 77);
  TraceWriter writer(3.0);
  ASSERT_TRUE(writer.AddScenario(scenario).ok());
  const auto first = writer.Serialize();
  ASSERT_TRUE(first.ok());
  const auto loaded = TraceReader::Parse(first.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  TraceWriter rewriter(loaded.value().horizon);
  ASSERT_TRUE(rewriter.AddScenario(loaded.value().scenario).ok());
  const auto second = rewriter.Serialize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value()) << "bytes drifted across a reparse";
}

// Doubles survive the CSV text encoding bit-exactly (%.17g + strtod).
TEST(TraceCsvTest, CsvRoundTripsDoublesBitExactly) {
  TraceWriter writer(2.0);
  const double t = 1.0 / 3.0;
  const double x = 0.1 + 0.2;  // famously not 0.3
  ASSERT_TRUE(writer.AddWorker(t, MakeWorker(0, x, 1e-17, 0.25)).ok());
  const auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok());
  const auto loaded = TraceReader::Parse(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const TimedWorker& tw = loaded.value().scenario.workers.at(0);
  EXPECT_EQ(std::memcmp(&tw.time, &t, sizeof(double)), 0);
  const double got_x = tw.worker.location.lo().x;
  EXPECT_EQ(std::memcmp(&got_x, &x, sizeof(double)), 0);
}

// ------------------------------------------------------------ writer checks

TEST(TraceWriterTest, RejectsMalformedRecords) {
  TraceWriter writer(2.0);
  // Out of range / non-finite times.
  EXPECT_FALSE(writer.AddWorker(-0.5, MakeWorker(0, 0.1, 0.1, 0.2)).ok());
  EXPECT_FALSE(writer.AddWorker(2.0, MakeWorker(0, 0.1, 0.1, 0.2)).ok());
  EXPECT_FALSE(writer
                   .AddWorker(std::nan(""), MakeWorker(0, 0.1, 0.1, 0.2))
                   .ok());
  // Negative velocity / id, non-finite deadline.
  EXPECT_FALSE(writer.AddWorker(0.5, MakeWorker(0, 0.1, 0.1, -0.2)).ok());
  EXPECT_FALSE(writer.AddWorker(0.5, MakeWorker(-3, 0.1, 0.1, 0.2)).ok());
  EXPECT_FALSE(writer
                   .AddTask(0.5, MakeTask(0, 0.1, 0.1,
                                          std::numeric_limits<double>::infinity()))
                   .ok());
  // A negative deadline is malformed; a deadline of 0 is valid.
  EXPECT_FALSE(writer.AddTask(0.5, MakeTask(0, 0.1, 0.1, -0.5)).ok());
  EXPECT_TRUE(writer.AddTask(0.5, MakeTask(0, 0.1, 0.1, 0.0)).ok());
  // Out-of-order times within a list.
  EXPECT_TRUE(writer.AddWorker(1.0, MakeWorker(0, 0.1, 0.1, 0.2)).ok());
  EXPECT_FALSE(writer.AddWorker(0.5, MakeWorker(1, 0.1, 0.1, 0.2)).ok());
  // Predicted entities are simulator state, not workload.
  Worker predicted = MakeWorker(2, 0.1, 0.1, 0.2);
  predicted.predicted = true;
  EXPECT_FALSE(writer.AddWorker(1.5, predicted).ok());
}

// ---------------------------------------------------- fuzz: malformed input

std::string ValidCsv() {
  TraceWriter writer(2.0);
  EXPECT_TRUE(writer.AddWorker(0.25, MakeWorker(0, 0.1, 0.2, 0.25)).ok());
  EXPECT_TRUE(writer.AddWorker(1.5, MakeWorker(1, 0.3, 0.4, 0.3)).ok());
  EXPECT_TRUE(writer.AddTask(0.5, MakeTask(0, 0.5, 0.6, 1.5)).ok());
  return writer.Serialize().value();
}

TEST(TraceFuzzTest, ValidBaselinesParse) {
  EXPECT_TRUE(TraceReader::Parse(ValidCsv()).ok());
}

// Every corrupted CSV must come back as a clean non-OK Status. NaN
// coordinates are the sharpest case: BBox aborts on NaN corners, so the
// reader must validate before constructing geometry.
TEST(TraceFuzzTest, MalformedCsvYieldsCleanStatus) {
  const std::string valid = ValidCsv();
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bytes = valid;
    const size_t pos = bytes.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    bytes.replace(pos, from.size(), to);
    return bytes;
  };

  const struct {
    const char* label;
    std::string bytes;
  } cases[] = {
      {"empty input", ""},
      {"bad magic", corrupt("# mqa-trace-v1", "# mqa-trace-v9")},
      {"missing horizon", corrupt(" horizon=2", "")},
      {"negative horizon", corrupt("horizon=2", "horizon=-2")},
      {"nan horizon", corrupt("horizon=2", "horizon=nan")},
      {"bad column header", corrupt("kind,time,id,x,y,attr", "kind,time")},
      {"bad kind", corrupt("w,0.25", "q,0.25")},
      {"nan coordinate", corrupt("0.10000000000000001", "nan")},
      {"inf coordinate", corrupt("0.10000000000000001", "inf")},
      {"negative velocity", corrupt(",0.25\n", ",-0.25\n")},
      {"nan deadline", corrupt(",1.5\n", ",nan\n")},
      {"negative deadline", corrupt(",1.5\n", ",-0.5\n")},
      {"negative id", corrupt("w,1.5,1,", "w,1.5,-1,")},
      {"non-numeric field", corrupt("0.29999999999999999", "zebra")},
      {"truncated row", corrupt(",0.25\n", "\n")},
      {"out-of-order rows", corrupt("w,0.25", "w,1.75")},
      {"time past horizon", corrupt("w,1.5", "w,2.5")},
      {"negative time", corrupt("t,0.5", "t,-0.5")},
  };
  for (const auto& c : cases) {
    const auto result = TraceReader::Parse(c.bytes);
    EXPECT_FALSE(result.ok()) << c.label << " parsed successfully";
  }
  // A deadline of 0 is valid, as ProblemInstance::Validate allows it.
  EXPECT_TRUE(TraceReader::Parse(corrupt(",1.5\n", ",0\n")).ok());
}

// Bytes that open with any other magic (here a binary one) are not a
// trace, whatever follows.
TEST(TraceFuzzTest, ForeignMagicIsNotATrace) {
  std::string bytes = "MQATRCB1";
  bytes += std::string(32, '\0');
  bytes += ValidCsv();
  const auto result = TraceReader::Parse(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("not an mqa-trace-v1 file"),
            std::string::npos)
      << result.status();
}

// Batch replay buckets a trace into ceil(horizon) instances, so the
// reader and the writer reject a horizon past 2^20 instances instead of
// overflowing the instance count or exhausting memory downstream.
TEST(TraceHorizonTest, RejectedPastTwoToTheTwentyInstances) {
  const std::string csv = ValidCsv();
  const auto with_csv_horizon = [&](const std::string& horizon) {
    std::string bytes = csv;
    const size_t pos = bytes.find("horizon=2\n");
    EXPECT_NE(pos, std::string::npos);
    bytes.replace(pos, 9, "horizon=" + horizon);
    return bytes;
  };
  EXPECT_TRUE(TraceReader::Parse(with_csv_horizon("1048576")).ok());
  EXPECT_TRUE(TraceReader::Parse(with_csv_horizon("1e6")).ok());
  for (const char* horizon : {"1048576.5", "2e9", "3e9", "1e15"}) {
    EXPECT_FALSE(TraceReader::Parse(with_csv_horizon(horizon)).ok())
        << "csv horizon=" << horizon;
  }

  TraceWriter at_bound(kMaxTraceHorizon);
  EXPECT_TRUE(at_bound.AddWorker(0.5, MakeWorker(0, 0.1, 0.1, 0.2)).ok());
  EXPECT_TRUE(at_bound.Serialize().ok());
  TraceWriter past_bound(3e9);
  EXPECT_FALSE(past_bound.AddWorker(0.5, MakeWorker(0, 0.1, 0.1, 0.2)).ok());
  EXPECT_FALSE(past_bound.AddTask(0.5, MakeTask(0, 0.1, 0.1, 1.0)).ok());
  EXPECT_FALSE(past_bound.Serialize().ok());
}

// Whatever the reader accepts, ArrivalStream::Validate accepts too: the
// loader's contract is that a loaded trace feeds the simulators without
// further checking.
TEST(TraceFuzzTest, LoadedTracesPassArrivalStreamValidate) {
  const auto loaded = TraceReader::Parse(ValidCsv());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Status status = loaded.value().ToArrivalStream().Validate();
  EXPECT_TRUE(status.ok()) << status;
}

}  // namespace
}  // namespace mqa

// The run report is the one post-mortem artifact: an mqa-run-report-v8
// JSON file whose epoch rows are the simulators' InstanceMetrics. These
// tests run a small batch greedy and a small stream D&C simulation at 1
// and 4 threads and check the written report against the summary each
// simulator returns: a top level of schema, provenance, config and
// epochs only, one row per epoch, the same checksums, pool, greedy and
// prediction numbers, no index object, a pool object of exactly three
// keys, a greedy object of exactly four, exactly eight phases whose
// first five add up to the epoch's wall time, and a process footprint
// whose peak RSS never reads below its RSS and, like CPU time, never
// decreases. On Linux the RSS sample itself is a positive whole number
// of pages, and it is the statm resident field, not the size field.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "core/assigner.h"
#include "obs/process_stats.h"
#include "obs/run_report.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "test_util.h"

namespace mqa {
namespace {

/// The report's epoch rows, one string each (the writer puts every row
/// on its own line).
std::vector<std::string> EpochRows(const std::string& json) {
  std::vector<std::string> rows;
  const std::string open = "\"epochs\": [";
  size_t pos = json.find(open);
  if (pos == std::string::npos) return rows;
  pos += open.size();
  const size_t end = json.find(']', pos);
  while (true) {
    const size_t row_begin = json.find("\n    {", pos);
    if (row_begin == std::string::npos || row_begin > end) break;
    const size_t row_end = json.find('\n', row_begin + 1);
    rows.push_back(json.substr(row_begin + 5, row_end - row_begin - 5));
    pos = row_end;
  }
  return rows;
}

/// The report's top-level keys in order (the writer indents each by two
/// spaces on its own line; nested keys sit deeper).
std::vector<std::string> TopLevelKeys(const std::string& json) {
  std::vector<std::string> keys;
  const std::string open = "\n  \"";
  for (size_t at = json.find(open); at != std::string::npos;
       at = json.find(open, at + 1)) {
    const size_t begin = at + open.size();
    keys.push_back(json.substr(begin, json.find('"', begin) - begin));
  }
  return keys;
}

/// The flat object `"name":{...}` inside `row` (the row's sub-objects
/// hold no nested objects).
std::string Object(const std::string& row, const std::string& name) {
  const std::string open = "\"" + name + "\":{";
  const size_t begin = row.find(open);
  if (begin == std::string::npos) return "";
  return row.substr(begin + open.size() - 1,
                    row.find('}', begin) - begin - open.size() + 2);
}

/// The keys of the flat `object`, in order.
std::vector<std::string> Keys(const std::string& object) {
  std::vector<std::string> keys;
  for (size_t at = object.find('"'); at != std::string::npos;
       at = object.find(",\"", at)) {
    const size_t begin = object.find('"', at) + 1;
    keys.push_back(object.substr(begin, object.find('"', begin) - begin));
    at = begin;
  }
  return keys;
}

/// The number after `"key":` in `object`, NaN when the key is absent.
double Number(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << needle << " in " << object;
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(object.c_str() + at + needle.size(), nullptr);
}

/// Checks the report written for `per_epoch` (the summary's rows, in
/// epoch order).
void ExpectReportMatches(const std::vector<InstanceMetrics>& per_epoch) {
  ASSERT_FALSE(per_epoch.empty());
  const std::string json = RunReport::Get().ToJsonString();
  EXPECT_NE(json.find("\"schema\": \"mqa-run-report-v8\""),
            std::string::npos);
  // Every count lives in an epoch row: no process-wide aggregates.
  EXPECT_EQ(TopLevelKeys(json),
            (std::vector<std::string>{"schema", "git", "machine", "config",
                                      "epochs"}));
  EXPECT_EQ(json.find("\"phases\""), std::string::npos);
  EXPECT_EQ(json.find("\"index\":{"), std::string::npos);

  const std::vector<std::string> rows = EpochRows(json);
  ASSERT_EQ(rows.size(), per_epoch.size());
  EXPECT_EQ(RunReport::Get().epoch_count(),
            static_cast<int64_t>(per_epoch.size()));
  double prev_peak_rss = 0.0;
  double prev_cpu = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const InstanceMetrics& m = per_epoch[i];
    const std::string& row = rows[i];
    SCOPED_TRACE("epoch " + std::to_string(i) + ": " + row);

    char checksum[40];
    std::snprintf(checksum, sizeof(checksum), "\"checksum\":\"%016" PRIx64
                  "\"", m.assignment_checksum);
    EXPECT_NE(row.find(checksum), std::string::npos);
    EXPECT_EQ(Number(row, "instance"), static_cast<double>(m.instance));
    EXPECT_EQ(Number(row, "predicted_workers"),
              static_cast<double>(m.predicted_workers));
    EXPECT_EQ(Number(row, "predicted_tasks"),
              static_cast<double>(m.predicted_tasks));

    const std::string pool = Object(row, "pool");
    EXPECT_EQ(Keys(pool),
              (std::vector<std::string>{"pairs", "predicted_pairs",
                                        "bytes"}));
    EXPECT_EQ(Number(pool, "pairs"), static_cast<double>(m.pool_pairs));
    EXPECT_EQ(Number(pool, "predicted_pairs"),
              static_cast<double>(m.pool_predicted_pairs));
    EXPECT_EQ(Number(pool, "bytes"), static_cast<double>(m.pool_bytes));

    // The greedy loop's counts: both runs' assigners (greedy, D&C) run
    // it every epoch, every assigned pair was selected in some
    // iteration, and the largest S_p is one term of the summed sizes.
    const std::string greedy = Object(row, "greedy");
    ASSERT_FALSE(greedy.empty());
    EXPECT_EQ(Keys(greedy),
              (std::vector<std::string>{"iterations", "candidates",
                                        "max_candidates", "retired_pairs"}));
    EXPECT_EQ(Number(greedy, "iterations"),
              static_cast<double>(m.greedy_iterations));
    EXPECT_EQ(Number(greedy, "candidates"),
              static_cast<double>(m.greedy_candidates));
    EXPECT_EQ(Number(greedy, "max_candidates"),
              static_cast<double>(m.greedy_max_candidates));
    EXPECT_EQ(Number(greedy, "retired_pairs"),
              static_cast<double>(m.greedy_retired_pairs));
    EXPECT_GT(m.greedy_iterations, 0);
    EXPECT_GE(m.greedy_iterations, m.assigned);
    EXPECT_LE(m.greedy_max_candidates, m.greedy_candidates);

    // The five serial phases partition the epoch's wall time; the pool
    // build is its own phase, not part of assign. Validate, apply and
    // ingest run outside that clock.
    const std::string phases = Object(row, "phase_seconds");
    EXPECT_EQ(Keys(phases),
              (std::vector<std::string>{"predict", "assemble", "index",
                                        "pool_build", "assign", "validate",
                                        "apply", "ingest"}));
    double sum = 0.0;
    for (const char* phase :
         {"predict", "assemble", "index", "pool_build", "assign"}) {
      const double seconds = Number(phases, phase);
      EXPECT_GE(seconds, 0.0) << phase;
      sum += seconds;
    }
    const double wall = Number(row, "wall_seconds");
    EXPECT_EQ(wall, m.cpu_seconds);
    EXPECT_NEAR(sum, wall, 1e-9);
    EXPECT_EQ(Number(phases, "pool_build"), m.pool_build_seconds);
    if (m.pool_pairs > 0) {
      EXPECT_GT(m.pool_build_seconds, 0.0);
    }

    // The process footprint as the epoch ended: the row carries the
    // sampled values, and the cumulative ones only grow.
    const std::string process = Object(row, "process");
    const double rss = Number(process, "rss_bytes");
    const double peak_rss = Number(process, "peak_rss_bytes");
    const double cpu = Number(process, "cpu_seconds");
    EXPECT_EQ(rss, static_cast<double>(m.rss_bytes));
    EXPECT_EQ(peak_rss, static_cast<double>(m.peak_rss_bytes));
    EXPECT_EQ(cpu, m.process_cpu_seconds);
#if defined(__linux__)
    EXPECT_GT(rss, 0.0);
    EXPECT_GT(peak_rss, 0.0);
#endif
    EXPECT_GE(peak_rss, rss);
    EXPECT_GE(peak_rss, prev_peak_rss);
    EXPECT_GE(cpu, prev_cpu);
    prev_peak_rss = peak_rss;
    prev_cpu = cpu;
  }
}

TEST(ProcessStatsTest, RssIsWholeResidentPagesOnLinux) {
#if defined(__linux__)
  const int64_t page = sysconf(_SC_PAGESIZE);
  ASSERT_GT(page, 0);
  const ProcessStats stats = ReadProcessStats();
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_EQ(stats.rss_bytes % page, 0) << stats.rss_bytes;
  // The second statm field (resident), not the first (total size), which
  // is far larger: a separate parse agrees to within 256 pages.
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  ASSERT_TRUE(statm >> size_pages >> resident_pages);
  EXPECT_NEAR(static_cast<double>(stats.rss_bytes / page),
              static_cast<double>(resident_pages), 256.0);
#else
  GTEST_SKIP() << "/proc/self/statm is Linux-only";
#endif
}

class RunReportTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { RunReport::Get().Reset(); }
  void TearDown() override { RunReport::Get().Reset(); }
};

TEST_P(RunReportTest, BatchGreedyRowsMatchSummary) {
  const ArrivalStream stream =
      testing_util::SmallSyntheticStream(200, 200, 4, 17);
  const RangeQualityModel quality(1.0, 2.0, 13);
  SimulatorConfig config = testing_util::PropertySimConfig();
  config.prediction.seed = 17;
  config.num_threads = GetParam();

  Simulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kGreedy, {.seed = 7});
  const auto summary = sim.Run(stream, assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  ExpectReportMatches(summary.value().per_instance);
}

TEST_P(RunReportTest, StreamDivideConquerRowsMatchSummary) {
  const ScenarioStream scenario =
      testing_util::SmallScenario(ScenarioKind::kBursty, 200, 200, 4.0, 23);
  const RangeQualityModel quality(1.0, 2.0, 13);
  StreamingConfig config;
  config.sim = testing_util::PropertySimConfig();
  config.sim.prediction.seed = 23;
  config.sim.num_threads = GetParam();
  config.policy.kind = EpochPolicyKind::kAdaptiveBacklog;
  config.policy.backlog_threshold = 40;
  config.policy.max_interval = 1.0;
  config.horizon = 4.0;

  StreamingSimulator sim(config, &quality);
  auto assigner = CreateAssigner(AssignerKind::kDivideConquer, {.seed = 7});
  const auto summary =
      sim.Run(EventQueue::FromScenario(scenario), assigner.get());
  ASSERT_TRUE(summary.ok()) << summary.status();
  std::vector<InstanceMetrics> per_epoch;
  for (const EpochStreamMetrics& e : summary.value().per_epoch) {
    per_epoch.push_back(e.instance);
  }
  ExpectReportMatches(per_epoch);
}

INSTANTIATE_TEST_SUITE_P(Threads, RunReportTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mqa

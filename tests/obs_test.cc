// Unit tests for src/obs/: tracer spans under an injected clock, and the
// chunked thread-local buffers and their flush ordering.
//
// The tracer is a process-wide singleton; every test resets it on entry
// and restores the real clock / disabled mode on exit so tests stay
// order-independent.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace mqa {
namespace {

// ---- tracer -----------------------------------------------------------------

std::atomic<int64_t> g_fake_now{0};
int64_t FakeClock() { return g_fake_now.load(std::memory_order_relaxed); }

/// Puts the tracer into a deterministic state for one test and restores
/// the defaults afterwards.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    g_fake_now.store(0, std::memory_order_relaxed);
    Tracer::Get().SetClockForTesting(&FakeClock);
    Tracer::Get().Enable();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().SetClockForTesting(nullptr);
    Tracer::Get().Reset();
  }
};

TEST_F(TracerTest, SpanRecordsInjectedTimestamps) {
  g_fake_now = 1000;
  {
    MQA_TRACE_SPAN("unit/alpha");
    g_fake_now = 3500;
  }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
  const std::string json = Tracer::Get().ToJsonString();
  // 1000 ns start -> 1.000 us, 2500 ns duration -> 2.500 us.
  EXPECT_NE(json.find("\"name\":\"unit/alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mqa\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TracerTest, SpanArgExportsPayload) {
  {
    MQA_TRACE_SPAN_ARG("unit/arg", 42);
  }
  const std::string json = Tracer::Get().ToJsonString();
  EXPECT_NE(json.find("\"args\":{\"v\":42}"), std::string::npos) << json;
}

TEST_F(TracerTest, ConditionalSpanGates) {
  {
    MQA_TRACE_SPAN_IF(false, "unit/skipped", 1);
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  {
    MQA_TRACE_SPAN_IF(true, "unit/taken", 2);
  }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Get().Disable();
  {
    MQA_TRACE_SPAN("unit/ghost");
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0);
}

TEST_F(TracerTest, SpanOpenAtDisableStillRecords) {
  {
    MQA_TRACE_SPAN("unit/straddler");
    Tracer::Get().Disable();
  }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
}

TEST_F(TracerTest, NestedSpansFlushParentFirst) {
  // Spans close inner-first, so the raw buffer holds the child before
  // the parent; the exporter must re-order by start time (ties broken
  // longest-first) so viewers nest them correctly.
  g_fake_now = 100;
  {
    MQA_TRACE_SPAN("unit/outer");
    g_fake_now = 200;
    {
      MQA_TRACE_SPAN("unit/inner");
      g_fake_now = 300;
    }
    g_fake_now = 900;
  }
  const std::string json = Tracer::Get().ToJsonString();
  const size_t outer = json.find("\"name\":\"unit/outer\"");
  const size_t inner = json.find("\"name\":\"unit/inner\"");
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(inner, std::string::npos);
  EXPECT_LT(outer, inner) << json;
}

TEST_F(TracerTest, SameStartOrdersLongestFirst) {
  Tracer::Get().AppendComplete("unit/short", 500, 10);
  Tracer::Get().AppendComplete("unit/long", 500, 300);
  const std::string json = Tracer::Get().ToJsonString();
  EXPECT_LT(json.find("\"name\":\"unit/long\""),
            json.find("\"name\":\"unit/short\""))
      << json;
}

TEST_F(TracerTest, ThreadNameAppliesBeforeFirstSpan) {
  std::thread worker([] {
    Tracer::Get().SetCurrentThreadName("unit-worker");
    g_fake_now = 50;
    MQA_TRACE_SPAN("unit/from_worker");
    g_fake_now = 60;
  });
  worker.join();
  const std::string json = Tracer::Get().ToJsonString();
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("{\"name\":\"unit-worker\"}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"unit/from_worker\""), std::string::npos);
}

TEST_F(TracerTest, ThreadsGetDistinctTracksInRegistrationOrder) {
  {
    MQA_TRACE_SPAN("unit/main_first");
  }
  std::thread worker([] {
    MQA_TRACE_SPAN("unit/worker_second");
  });
  worker.join();
  const std::string json = Tracer::Get().ToJsonString();
  // Registration order assigns tids: main (appended first) is 0.
  const size_t main_pos = json.find("\"name\":\"unit/main_first\"");
  ASSERT_NE(main_pos, std::string::npos);
  EXPECT_NE(json.find("\"tid\":0", main_pos), std::string::npos);
  const size_t worker_pos = json.find("\"name\":\"unit/worker_second\"");
  ASSERT_NE(worker_pos, std::string::npos);
  EXPECT_NE(json.find("\"tid\":1", worker_pos), std::string::npos) << json;
}

TEST_F(TracerTest, BufferGrowsPastOneChunk) {
  constexpr int kEvents = 4096 + 1234;  // forces a second chunk
  for (int i = 0; i < kEvents; ++i) {
    Tracer::Get().AppendComplete("unit/bulk", i, 1);
  }
  EXPECT_EQ(Tracer::Get().event_count(), kEvents);
}

TEST_F(TracerTest, ResetDropsEverything) {
  {
    MQA_TRACE_SPAN("unit/doomed");
  }
  ASSERT_EQ(Tracer::Get().event_count(), 1);
  Tracer::Get().Reset();
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  // The thread re-registers transparently after a reset.
  Tracer::Get().Enable();
  {
    MQA_TRACE_SPAN("unit/reborn");
  }
  EXPECT_EQ(Tracer::Get().event_count(), 1);
}

}  // namespace
}  // namespace mqa

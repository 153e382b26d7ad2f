// Unit tests for src/obs/watchdog.cc: deadline arithmetic under the
// injected tracer clock, the fire-exactly-once latch per armed epoch,
// re-arming across epochs, and the flight-recorder dump's contents
// (per-thread open-span stacks).
//
// The fixture's tests drive Poll() manually on the calling thread — no
// background thread, no sleeps, fully deterministic. One lifecycle test
// runs the real poll thread on the real clock to check the poll interval
// the watchdog derives from its deadline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "obs/watchdog.h"

namespace mqa {
namespace {

std::atomic<int64_t> g_fake_now{0};
int64_t FakeClock() { return g_fake_now.load(std::memory_order_relaxed); }

constexpr int64_t kSecond = 1000000000;

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    g_fake_now.store(0, std::memory_order_relaxed);
    Tracer::Get().SetClockForTesting(&FakeClock);
    Tracer::Get().Enable();
    // Deadline 1 s x 3 => fires past 3 s. A poll interval far above the
    // test duration keeps the background thread effectively dormant;
    // all deadline checks below go through PollForTesting.
    WatchdogConfig config;
    config.deadline_seconds = 1.0;
    config.multiple = 3.0;
    config.poll_interval_seconds = 3600.0;
    Watchdog::Get().Start(config);
  }
  void TearDown() override {
    Watchdog::Get().Stop();
    Tracer::Get().Disable();
    Tracer::Get().SetClockForTesting(nullptr);
    Tracer::Get().Reset();
  }
};

TEST_F(WatchdogTest, DoesNotFireBeforeDeadlineMultiple) {
  Watchdog::Get().ArmEpoch(0);
  g_fake_now = 2 * kSecond;  // 2 s < 1 s * 3
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
  EXPECT_EQ(Watchdog::Get().fire_count(), 0);
}

TEST_F(WatchdogTest, FiresExactlyOncePerArmedEpoch) {
  const int64_t before = Watchdog::Get().fire_count();
  Watchdog::Get().ArmEpoch(7);
  g_fake_now = 4 * kSecond;  // 4 s > 3 s
  EXPECT_TRUE(Watchdog::Get().PollForTesting());
  // Still stuck: repeated polls must not dump again.
  g_fake_now = 10 * kSecond;
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
  EXPECT_EQ(Watchdog::Get().fire_count(), before + 1);
  EXPECT_NE(Watchdog::Get().last_dump_for_testing().find("epoch 7"),
            std::string::npos);
}

TEST_F(WatchdogTest, DisarmStopsPolling) {
  Watchdog::Get().ArmEpoch(0);
  Watchdog::Get().DisarmEpoch();
  g_fake_now = 100 * kSecond;
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
}

TEST_F(WatchdogTest, RearmsForTheNextEpoch) {
  Watchdog::Get().ArmEpoch(1);
  g_fake_now = 4 * kSecond;
  EXPECT_TRUE(Watchdog::Get().PollForTesting());
  Watchdog::Get().DisarmEpoch();
  // Next epoch arms at the current (fake) time; its own 3 s budget.
  Watchdog::Get().ArmEpoch(2);
  g_fake_now = 6 * kSecond;  // only 2 s into epoch 2
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
  g_fake_now = 8 * kSecond;  // 4 s into epoch 2
  EXPECT_TRUE(Watchdog::Get().PollForTesting());
  EXPECT_NE(Watchdog::Get().last_dump_for_testing().find("epoch 2"),
            std::string::npos);
}

TEST_F(WatchdogTest, DumpNamesInFlightSpans) {
  Tracer::Get().SetCurrentThreadName("test-main");
  Watchdog::Get().ArmEpoch(3);
  {
    MQA_TRACE_SPAN("wd/outer");
    MQA_TRACE_SPAN("wd/inner");
    g_fake_now = 4 * kSecond;
    ASSERT_TRUE(Watchdog::Get().PollForTesting());
    const std::string dump = Watchdog::Get().last_dump_for_testing();
    EXPECT_NE(dump.find("wd/outer"), std::string::npos) << dump;
    EXPECT_NE(dump.find("wd/inner"), std::string::npos) << dump;
    EXPECT_NE(dump.find("test-main"), std::string::npos) << dump;
  }
  // Spans closed: a fresh dump would find nothing in flight.
  std::ostringstream empty_dump;
  Tracer::Get().DumpOpenSpans(empty_dump);
  EXPECT_NE(empty_dump.str().find("no spans in flight"), std::string::npos);
  EXPECT_EQ(Tracer::Get().open_depth_for_testing(), 0);
}

TEST_F(WatchdogTest, EpochGuardArmsAndDisarms) {
  {
    Watchdog::EpochGuard guard(11);
    g_fake_now = 4 * kSecond;
    EXPECT_TRUE(Watchdog::Get().PollForTesting());
    EXPECT_NE(Watchdog::Get().last_dump_for_testing().find("epoch 11"),
              std::string::npos);
  }
  // Guard destruction disarmed: no epoch to watch.
  g_fake_now = 100 * kSecond;
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
}

TEST(WatchdogLifecycleTest, StartWithNonPositiveDeadlineStaysOff) {
  WatchdogConfig config;
  config.deadline_seconds = 0.0;
  Watchdog::Get().Start(config);
  EXPECT_FALSE(Watchdog::Get().active());
  // Arm/disarm/poll on an inactive watchdog are cheap no-ops.
  Watchdog::Get().ArmEpoch(0);
  EXPECT_FALSE(Watchdog::Get().PollForTesting());
  Watchdog::Get().DisarmEpoch();
  Watchdog::Get().Stop();
}

TEST(WatchdogLifecycleTest, DefaultPollFollowsASubMillisecondDeadline) {
  // Deadline 0.1 ms x 3: the default poll interval derives from that
  // threshold (clamped to 1 ms), so an epoch armed for 50 ms is seen in
  // flight and fires. A fixed 250 ms poll would sleep straight through it.
  Tracer::Get().SetClockForTesting(nullptr);  // the real clock
  WatchdogConfig config;
  config.deadline_seconds = 1e-4;
  Watchdog::Get().Start(config);
  ASSERT_TRUE(Watchdog::Get().active());
  // Let the poll thread run its first (idle) check before arming.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int64_t before = Watchdog::Get().fire_count();
  Watchdog::Get().ArmEpoch(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Watchdog::Get().DisarmEpoch();
  EXPECT_EQ(Watchdog::Get().fire_count(), before + 1);
  EXPECT_NE(Watchdog::Get().last_dump_for_testing().find("epoch 5"),
            std::string::npos);
  Watchdog::Get().Stop();
}

}  // namespace
}  // namespace mqa

// Perf instrumentation: an attached phase timer records one call of its
// scope's wall time; a detached one reads no clock.
#include <gtest/gtest.h>

#include "util/perf.hpp"

namespace ivc::util {
namespace {

// A loop the optimizer cannot drop, so the timed scope is never empty.
void busy_loop() {
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<std::uint64_t>(i) * 2654435761u;
}

TEST(Perf, AttachedTimerRecordsOneCall) {
  PerfCollector collector;
  {
    PerfTimer timer(&collector, PerfPhase::Dynamics);
    busy_loop();
  }
  const PerfPhaseStats& stats = collector.phase(PerfPhase::Dynamics);
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_GT(stats.nanos, 0u);
  EXPECT_EQ(collector.total_nanos(), stats.nanos);
}

TEST(Perf, DetachedTimerRecordsNothing) {
  {
    PerfTimer timer(nullptr, PerfPhase::Dynamics);
    busy_loop();
  }
  // Nothing to assert on a null collector beyond "does not crash"; the
  // attached/detached contract is that the site is free when detached.
  SUCCEED();
}

TEST(Perf, HostUnameReportsSomethingOnPosix) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_FALSE(host_uname().empty());
#else
  GTEST_SKIP() << "no uname on this platform";
#endif
}

}  // namespace
}  // namespace ivc::util

// Perf instrumentation: the phase timer must record real thread-CPU time
// (the v2 schema's cpu_seconds was silently 0.000000 for every serial
// phase — the field existed but nothing measured ever fed it), and the
// sampled CPU clock must extrapolate to every call of a phase.
#include <gtest/gtest.h>

#include "util/perf.hpp"

namespace ivc::util {
namespace {

// Spin until the thread has burned ~2ms of CPU (by the probe's own
// measure), so the test asserts against work actually done rather than a
// wall-clock sleep a busy host could starve.
void burn_cpu() {
  const ThreadCpuProbe probe;
  volatile std::uint64_t sink = 0;
  while (probe.elapsed_nanos() < 2'000'000) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i) * 2654435761u;
  }
}

TEST(Perf, BusyLoopPhaseRecordsNonzeroCpuSeconds) {
  if (ThreadCpuProbe::now_nanos() == 0) {
    GTEST_SKIP() << "no thread-CPU clock on this platform";
  }
  PerfCollector collector;
  {
    PerfTimer timer(&collector, PerfPhase::Dynamics);
    burn_cpu();
  }
  const PerfPhaseStats& stats = collector.phase(PerfPhase::Dynamics);
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_GT(stats.nanos, 0u);
  // The regression under test: a busy loop must show up as CPU time, not
  // just wall time.
  EXPECT_GT(stats.cpu_nanos, 0u);
  EXPECT_GT(stats.cpu_seconds(), 0.0);
  // A single-threaded busy loop cannot use more CPU than wall (scheduling
  // noise allowance: 20%).
  EXPECT_LE(stats.cpu_seconds(), stats.seconds() * 1.2);
}

TEST(Perf, DetachedTimerRecordsNothing) {
  {
    PerfTimer timer(nullptr, PerfPhase::Dynamics);
    burn_cpu();
  }
  // Nothing to assert on a null collector beyond "does not crash"; the
  // attached/detached contract is that the site is free when detached.
  SUCCEED();
}

TEST(Perf, CpuSecondsExtrapolatesFromSampledCalls) {
  PerfCollector collector;
  // One measured call (50ns cpu) and one the timer skipped: the estimate
  // scales the sampled mean to all calls instead of treating the skipped
  // call as free.
  collector.add(PerfPhase::Transits, 100, 50, /*cpu_sampled=*/true);
  collector.add(PerfPhase::Transits, 100, 0, /*cpu_sampled=*/false);
  const PerfPhaseStats& stats = collector.phase(PerfPhase::Transits);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.cpu_sample_calls, 1u);
  EXPECT_DOUBLE_EQ(stats.cpu_seconds(), 100.0 * 1e-9);
  // No samples at all -> unknown, reported as 0 rather than a guess.
  EXPECT_DOUBLE_EQ(collector.phase(PerfPhase::Demand).cpu_seconds(), 0.0);
}

TEST(Perf, FirstCallOfAPhaseIsAlwaysSampled) {
  PerfCollector collector;
  EXPECT_TRUE(collector.should_sample_cpu(PerfPhase::Dynamics));
  collector.add(PerfPhase::Dynamics, 10, 5);
  // Subsequent calls sample once per stride.
  std::uint64_t sampled = 1;
  for (std::uint64_t i = 1; i < 2 * PerfCollector::kCpuSampleStride; ++i) {
    const bool sample = collector.should_sample_cpu(PerfPhase::Dynamics);
    collector.add(PerfPhase::Dynamics, 10, sample ? 5 : 0, sample);
    if (sample) ++sampled;
  }
  EXPECT_EQ(sampled, 2u);
  EXPECT_EQ(collector.phase(PerfPhase::Dynamics).cpu_sample_calls, 2u);
}

TEST(Perf, ThreadCpuProbeIsMonotone) {
  if (ThreadCpuProbe::now_nanos() == 0) {
    GTEST_SKIP() << "no thread-CPU clock on this platform";
  }
  const ThreadCpuProbe probe;
  burn_cpu();
  const std::uint64_t a = probe.elapsed_nanos();
  burn_cpu();
  const std::uint64_t b = probe.elapsed_nanos();
  EXPECT_GE(a, 2'000'000u);
  EXPECT_GT(b, a);
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

// Performance instrumentation: scoped phase timers, cheap counters and a
// peak-RSS probe, feeding the `ivc_bench --perf` JSON report.
//
// The collector is opt-in and pointer-gated: every instrumentation site
// takes a `PerfCollector*` and does nothing — not even a clock read — when
// it is null, so the hot loops pay a single predictable branch per phase
// per step when profiling is off. A collector is single-threaded by
// design; attach one collector per serial run (the sweep runner spawns one
// engine per worker and must not share a collector across them).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ivc::util {

// One enumerator per engine/harness phase of a simulation step. Keep in
// sync with perf_phase_name().
enum class PerfPhase : std::uint8_t {
  LaneChange,       // SimEngine: gap-acceptance lane changes
  Dynamics,         // SimEngine: IDM acceleration + position integration
  Overtakes,        // SimEngine: watched-vehicle order-flip detection
  Transits,         // SimEngine: intersection admission + despawns
  StepBookkeeping,  // SimEngine: prev-position carry, clock advance
  EventFlush,       // SimEngine: batched event dispatch to observers
  Demand,           // harness: boundary arrivals (DemandModel::update)
  kCount,
};

[[nodiscard]] const char* perf_phase_name(PerfPhase phase);

struct PerfPhaseStats {
  std::uint64_t calls = 0;
  // Wall-clock time of the phase as the step loop sees it.
  std::uint64_t nanos = 0;
  // Thread-CPU time of the calling thread over the sampled scopes
  // (CLOCK_THREAD_CPUTIME_ID; 0 where the platform has no probe). The CPU
  // clock is a real syscall (~200ns vs ~25ns for the vDSO steady clock),
  // so PerfTimer reads it only on every kCpuSampleStride-th call of a
  // phase; `cpu_sample_calls` counts how many calls were measured and
  // cpu_seconds() extrapolates. The estimate tracks the phase's real CPU
  // cost — wall time minus whatever preemption the host inflicted.
  std::uint64_t cpu_nanos = 0;
  std::uint64_t cpu_sample_calls = 0;

  [[nodiscard]] double seconds() const { return static_cast<double>(nanos) * 1e-9; }
  // CPU cost of the phase, extrapolated from the sampled calls (exact when
  // every call was sampled, e.g. a single measurement).
  [[nodiscard]] double cpu_seconds() const {
    if (cpu_sample_calls == 0) return 0.0;
    return static_cast<double>(cpu_nanos) * static_cast<double>(calls) /
           static_cast<double>(cpu_sample_calls) * 1e-9;
  }
};

class PerfCollector {
 public:
  static constexpr std::size_t kPhaseCount = static_cast<std::size_t>(PerfPhase::kCount);
  // Read the CPU clock on 1 call in 32 per phase: cheap enough that the
  // probe cannot distort the steps/s it is meant to explain, frequent
  // enough that per-phase estimates settle within a few hundred steps.
  static constexpr std::uint64_t kCpuSampleStride = 32;

  // `cpu_sampled` says whether cpu_nanos was actually measured for this
  // call (false = the timer skipped the CPU clock; the delta is unknown,
  // not zero).
  void add(PerfPhase phase, std::uint64_t nanos, std::uint64_t cpu_nanos,
           bool cpu_sampled = true) {
    PerfPhaseStats& stats = phases_[static_cast<std::size_t>(phase)];
    ++stats.calls;
    stats.nanos += nanos;
    if (cpu_sampled) {
      stats.cpu_nanos += cpu_nanos;
      ++stats.cpu_sample_calls;
    }
  }

  // True when the NEXT add() for `phase` falls on the sampling stride —
  // the first call of every phase is always sampled, so one-shot
  // measurements stay exact.
  [[nodiscard]] bool should_sample_cpu(PerfPhase phase) const {
    return phases_[static_cast<std::size_t>(phase)].calls % kCpuSampleStride == 0;
  }

  [[nodiscard]] const PerfPhaseStats& phase(PerfPhase phase) const {
    return phases_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] const std::array<PerfPhaseStats, kPhaseCount>& phases() const {
    return phases_;
  }
  [[nodiscard]] std::uint64_t total_nanos() const;

  void reset() { phases_ = {}; }

 private:
  std::array<PerfPhaseStats, kPhaseCount> phases_{};
};

// Calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID). Construction
// snapshots it; elapsed_nanos() is the CPU time this thread burned since.
// Returns 0 on platforms without the probe — consumers must treat a zero
// cpu reading as "unknown", not "free".
class ThreadCpuProbe {
 public:
  ThreadCpuProbe() : start_(now_nanos()) {}

  [[nodiscard]] std::uint64_t elapsed_nanos() const {
    const std::uint64_t now = now_nanos();
    return now >= start_ ? now - start_ : 0;
  }

  // Raw clock read; 0 when unavailable.
  [[nodiscard]] static std::uint64_t now_nanos();

 private:
  std::uint64_t start_;
};

// RAII phase timer. Reads the clocks only when a collector is attached.
// Records the wall time of every scope and — on the collector's sampling
// stride — the calling thread's CPU time over it (the two diverge when
// the host preempts the thread).
class PerfTimer {
 public:
  PerfTimer(PerfCollector* collector, PerfPhase phase)
      : collector_(collector), phase_(phase) {
    if (collector_ != nullptr) {
      sample_cpu_ = collector_->should_sample_cpu(phase_);
      if (sample_cpu_) cpu_start_ = ThreadCpuProbe::now_nanos();
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~PerfTimer() {
    if (collector_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      std::uint64_t cpu_delta = 0;
      if (sample_cpu_) {
        const std::uint64_t cpu_now = ThreadCpuProbe::now_nanos();
        cpu_delta = cpu_now >= cpu_start_ ? cpu_now - cpu_start_ : 0;
      }
      collector_->add(phase_,
                      static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                              .count()),
                      cpu_delta, sample_cpu_);
    }
  }

  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

 private:
  PerfCollector* collector_;
  PerfPhase phase_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t cpu_start_ = 0;
  bool sample_cpu_ = false;
};

// Monotonic wall-clock read in nanoseconds (steady_clock). This is the
// sanctioned accessor for code that needs a wall timestamp: rule R1
// (tools/ivc_lint) bans std::chrono::*_clock::now() outside util/perf so
// no simulation path can grow a wall-clock dependence — timing must flow
// through this header, where it is visibly instrumentation.
[[nodiscard]] inline std::uint64_t steady_now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Peak resident set size of this process in bytes; 0 when the platform
// offers no probe.
[[nodiscard]] std::size_t peak_rss_bytes();

// "sysname release machine" from uname(2) — the host identity recorded in
// perf reports so a reader can tell two measurements were not comparable.
// Empty string when the platform offers no probe.
[[nodiscard]] std::string host_uname();

}  // namespace ivc::util

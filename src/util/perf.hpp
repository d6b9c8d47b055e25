// Performance instrumentation: scoped phase timers, cheap counters and a
// peak-RSS probe, read by the repo benchmark's traced runs (benchmark/).
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
  // Never timed: the engine has no overtake phase. Kept only because the
  // repo benchmark still reads it (benchmark/src/probes.cpp).
  Overtakes,
  Transits,         // SimEngine: intersection admission + despawns
  StepBookkeeping,  // SimEngine: lane-change cooldowns, clock advance
  EventFlush,       // SimEngine: batched event dispatch to observers
  Demand,           // harness: boundary arrivals (DemandModel::update)
  kCount,
};

[[nodiscard]] const char* perf_phase_name(PerfPhase phase);

struct PerfPhaseStats {
  std::uint64_t calls = 0;
  // Wall-clock time of the phase as the step loop sees it.
  std::uint64_t nanos = 0;

  [[nodiscard]] double seconds() const { return static_cast<double>(nanos) * 1e-9; }
};

class PerfCollector {
 public:
  static constexpr std::size_t kPhaseCount = static_cast<std::size_t>(PerfPhase::kCount);

  void add(PerfPhase phase, std::uint64_t nanos) {
    PerfPhaseStats& stats = phases_[static_cast<std::size_t>(phase)];
    ++stats.calls;
    stats.nanos += nanos;
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

// RAII phase timer: records the wall time of its scope. Reads the clock
// only when a collector is attached.
class PerfTimer {
 public:
  PerfTimer(PerfCollector* collector, PerfPhase phase)
      : collector_(collector), phase_(phase) {
    if (collector_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PerfTimer() {
    if (collector_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      collector_->add(phase_, static_cast<std::uint64_t>(
                                  std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                                      .count()));
    }
  }

  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

 private:
  PerfCollector* collector_;
  PerfPhase phase_;
  std::chrono::steady_clock::time_point start_;
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
// benchmark reports so a reader can tell two measurements were not comparable.
// Empty string when the platform offers no probe.
[[nodiscard]] std::string host_uname();

}  // namespace ivc::util

#include "util/perf.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/utsname.h>
#endif

namespace ivc::util {

const char* perf_phase_name(PerfPhase phase) {
  switch (phase) {
    case PerfPhase::LaneChange: return "lane_change";
    case PerfPhase::Dynamics: return "dynamics";
    case PerfPhase::Overtakes: return "overtakes";
    case PerfPhase::Transits: return "transits";
    case PerfPhase::StepBookkeeping: return "step_bookkeeping";
    case PerfPhase::EventFlush: return "event_flush";
    case PerfPhase::Demand: return "demand";
    case PerfPhase::kCount: break;
  }
  return "unknown";
}

std::uint64_t PerfCollector::total_nanos() const {
  std::uint64_t total = 0;
  for (const PerfPhaseStats& stats : phases_) total += stats.nanos;
  return total;
}

std::string host_uname() {
#if defined(__unix__) || defined(__APPLE__)
  utsname u{};
  if (uname(&u) != 0) return {};
  std::string s = u.sysname;
  s += ' ';
  s += u.release;
  s += ' ';
  s += u.machine;
  return s;
#else
  return {};
#endif
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace ivc::util

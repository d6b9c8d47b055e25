// The benchmark's three workloads. Each takes its seed from the options,
// measures for about `seconds` when untraced, and records metrics and
// checked operations into the report.
#pragma once

#include <cstdint>
#include <string>

#include "experiment/registry.hpp"
#include "probes.hpp"
#include "report.hpp"

namespace ivc::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  experiment::ScenarioScale scale = experiment::ScenarioScale::Full;
  Inject inject = Inject::None;
};

// Registry `manhattan-closed-rush`, stepped serially through SimWorld with
// snapshot round trips at fixed step cuts.
void run_dense_closed(const Options& options, Report& report, TraceSet& traces);
// Registry `metro-grid-sparse` behind CountingService with two open-loop
// reader threads; snapshot round trips on the finished world.
void run_sparse_served(const Options& options, Report& report, TraceSet& traces);
// Paper Fig. 5(a) grid through run_sweep on two pool threads, then every
// cell replayed serially through SimWorld.
void run_open_sweep(const Options& options, Report& report, TraceSet& traces);

}  // namespace ivc::bench

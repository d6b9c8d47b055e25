// Binary input traces: record a run's external inputs and pinned event
// hashes, replay them later and assert bit-identical behavior.
//
// The simulator is closed-loop deterministic: every external input is the
// scenario source (a registry entry or a fuzz case seed) plus the seeds
// derived from it — spawn decisions, routes and channel outcomes are all
// functions of those. A trace therefore records (a) the scenario source,
// so replay can rebuild the exact configuration, and (b) a per-step record
// of the observable consequences — spawn totals, event counts, the running
// FNV-1a event-stream hash — which replay re-derives and checks step by
// step. The first diverging step is reported precisely; this is the
// debugging contract: same inputs + same seeds => same outputs, and a
// trace that stops matching pins WHERE history forked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/registry.hpp"

namespace ivc::serve {

// Where the traced run's configuration comes from. A ScenarioConfig
// itself is not serializable (map_factory is code), so traces identify
// scenarios by registry name or fuzz case seed — both fully determine the
// configuration on any build of the same version.
struct TraceSource {
  enum class Kind : std::uint8_t { Registry = 0, FuzzCase = 1 };
  Kind kind = Kind::Registry;
  std::string name;  // registry scenario name
  experiment::ScenarioScale scale = experiment::ScenarioScale::Smoke;
  std::uint64_t case_seed = 0;  // fuzz case

  [[nodiscard]] static TraceSource registry(std::string scenario_name,
                                            experiment::ScenarioScale s);
  [[nodiscard]] static TraceSource fuzz_case(std::uint64_t seed);
  [[nodiscard]] std::string describe() const;
};

// Run the scenario to completion, recording one record per step; returns
// the serialized trace. Throws SnapshotError (shared codec/error type)
// when the source does not resolve to a scenario.
[[nodiscard]] std::vector<std::uint8_t> record_trace(const TraceSource& source);

struct ReplayReport {
  bool ok = false;
  // First divergence (step + field + both values), or empty on success.
  std::string detail;
  std::uint64_t steps = 0;        // steps replayed
  std::uint64_t final_hash = 0;   // replay-side event-stream hash
};

// Re-drive the traced scenario and assert every per-step record and the
// final digest. Never throws on divergence — the report carries it;
// throws SnapshotError only on a malformed/mismatched-version trace. A
// record count that disagrees with the trace's length is malformed, and
// is rejected before any world is built.
[[nodiscard]] ReplayReport replay_trace(const std::vector<std::uint8_t>& bytes);

// File helpers (binary, whole-buffer). read_trace_file throws
// SnapshotError when the file cannot be read.
void write_trace_file(const std::string& path, const std::vector<std::uint8_t>& bytes);
[[nodiscard]] std::vector<std::uint8_t> read_trace_file(const std::string& path);

}  // namespace ivc::serve

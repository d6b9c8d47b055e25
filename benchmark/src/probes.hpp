// Calls into libivc's public API that the workloads share: driving a
// SimWorld with per-step timing, snapshot round trips, the served-view
// consistency check, the router timing wrapper, and the deterministic
// counts the traced/untraced cross-check compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "serve/world.hpp"
#include "tracer.hpp"
#include "util/perf.hpp"

namespace ivc::bench {

// Test-only corruption the self-test injects to prove the checks fire.
enum class Inject {
  None,
  SnapshotFlip,  // flip one byte of the first snapshot between encode and decode
  TornView,      // hand one inconsistent view to the first reader's check
};

// One snapshot round trip: save + encode, decode + restore into a fresh
// Mode::Restore world, then re-save and compare bytes.
struct RoundTrip {
  double capture_ms = 0.0;  // SimWorld::save
  double encode_ms = 0.0;   // Snapshot::to_bytes
  double decode_ms = 0.0;   // Snapshot::from_bytes
  double apply_ms = 0.0;    // SimWorld::restore
  std::size_t bytes = 0;
  std::uint64_t hash = 0;
  std::map<std::string, std::size_t> section_bytes;
  std::size_t vehicles = 0;
  bool ok = false;
  std::string error;

  [[nodiscard]] double save_ms() const { return capture_ms + encode_ms; }
  [[nodiscard]] double restore_ms() const { return decode_ms + apply_ms; }
};

// `config` must be the config `world` was built from. A SnapshotError is a
// failed round trip, never an escaping exception. With `flip`, one byte of
// the encoded snapshot is corrupted before decoding.
[[nodiscard]] RoundTrip snapshot_round_trip(const serve::SimWorld& world,
                                            const experiment::ScenarioConfig& config,
                                            Tracer& tracer, bool flip);

// A served view is consistent when its step never goes backwards for the
// reader that read it and the live total equals the sum of the checkpoint
// totals. Either failure means a torn read. Updates `last_step`.
[[nodiscard]] bool view_consistent(const serve::ServiceView& view, std::uint64_t& last_step);

// Installs the router timing wrapper: every route continuation the engine
// asks for is planned exactly as SimWorld's default planner does
// (demand().plan_continuation), inside a "router.plan" span on `tracer`.
// `world` and `tracer` must outlive the world's stepping.
void time_route_planner(serve::SimWorld& world, Tracer& tracer);

// Result of driving one SimWorld from construction to done().
struct WorldRun {
  double construct_s = 0.0;
  double step_s = 0.0;               // summed step() wall time
  std::vector<float> step_us;        // every step() call-to-return
  std::uint64_t vehicle_steps = 0;   // Σ alive vehicles entering each step
  std::vector<RoundTrip> trips;
  experiment::RunMetrics metrics;
  std::uint64_t channel_attempts = 0;
};

// Builds a world from `config`, steps it until done() timing every step,
// and takes a snapshot round trip whenever the step count is a multiple of
// `cut_every` (0: never), up to `max_cuts`; a run that finishes before its
// first cut is snapshotted once at the end. With a collector attached to
// `config.perf`, the router timing wrapper is installed too.
[[nodiscard]] WorldRun drive_world(const experiment::ScenarioConfig& config, Tracer& tracer,
                                   std::uint64_t cut_every, std::size_t max_cuts,
                                   bool flip_first_snapshot);

// The deterministic results of one run, keyed by name: they must be equal
// between the untraced and traced runs of one seed.
using Counts = std::map<std::string, double>;
[[nodiscard]] Counts deterministic_counts(const experiment::RunMetrics& metrics,
                                          std::uint64_t channel_attempts,
                                          const std::vector<RoundTrip>& trips);
// Adds `counts` to `into`: sums, except that the simulated-minute maxima
// take the max.
void merge_counts(Counts& into, const Counts& counts);
// Checks `traced` against `untraced` key by key, one check per key.
void cross_check(Report& report, const Counts& untraced, const Counts& traced);

// Per-layer metrics read from the perf collector and the run's counters.
void add_engine_layers(Report& report, const util::PerfCollector& perf,
                       std::uint64_t steps, std::uint64_t vehicle_steps, std::uint64_t events);
void add_snapshot_layers(Report& report, const std::vector<RoundTrip>& trips);
void add_count_layers(Report& report, const Counts& counts);

// Median wall milliseconds of `repeats` calls of the scenario's map factory
// (roadnet.build_ms).
[[nodiscard]] double map_build_ms(const experiment::ScenarioConfig& config, int repeats);

}  // namespace ivc::bench

// Experiment scenarios: one fully-specified simulation run.
//
// A scenario bundles the map, the demand level (the paper's x-axis:
// traffic volume as % of daily average), the seed count (the paper's
// y-axis: 1-10 randomly placed seeds/sinks), the protocol options (loss,
// overtakes, collection, target spec) and the replica RNG seed. The runner
// executes to convergence and extracts exactly the quantities the paper's
// figures plot, plus the correctness verdicts of the oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "counting/config.hpp"
#include "counting/protocol.hpp"
#include "roadnet/manhattan.hpp"
#include "traffic/sim_engine.hpp"
#include "util/perf.hpp"

namespace ivc::experiment {

enum class SystemMode {
  Closed,  // paper Figs. 2/3: borders sealed
  Open,    // paper Figs. 4/5: gateway interaction on the border
};

struct ScenarioConfig {
  roadnet::ManhattanConfig map;
  // Optional topology override (the scenario zoo): when set, the runner
  // builds the network from this factory instead of the Manhattan grid.
  // The factory receives the effective gateway stride (0 when the system
  // runs closed) so every zoo topology supports both modes.
  std::function<roadnet::RoadNetwork(int gateway_stride)> map_factory;
  // Topology label for tables/describe(); "manhattan" unless a factory is set.
  std::string map_name = "manhattan";
  SystemMode mode = SystemMode::Closed;
  // Gateways per border stride when open (passed to the generator).
  int gateway_stride = 4;

  double volume_pct = 100.0;
  std::size_t vehicles_at_100pct = 2000;
  double arrival_rate_at_100pct = 1.6;  // open systems, veh/s over all gateways

  int num_seeds = 1;
  std::size_t num_patrol = 0;

  counting::ProtocolConfig protocol;
  traffic::SimConfig sim;

  double time_limit_minutes = 240.0;
  std::uint64_t seed = 1;

  // Optional perf instrumentation: when set, the engine's step phases and
  // the demand update are timed into this collector. Collectors are
  // single-threaded — attach one per serial run only, never to the base
  // config of a multi-threaded sweep.
  util::PerfCollector* perf = nullptr;

  [[nodiscard]] std::string describe() const;
};

struct RunMetrics {
  // -- convergence ------------------------------------------------------------
  bool constitution_converged = false;  // all checkpoints stable (Alg.3/5)
  bool collection_converged = false;    // every seed holds its tree total
  bool quiescent = false;

  double time_all_active_min = 0.0;  // wave covered every checkpoint
  // Per-checkpoint constitution time (minutes): the paper's Fig. 2/4 panels.
  double constitution_max_min = 0.0;
  double constitution_min_min = 0.0;
  double constitution_avg_min = 0.0;
  // Per-seed collection completion time (minutes): Fig. 3/5 panels.
  double collection_max_min = 0.0;
  double collection_min_min = 0.0;
  double collection_avg_min = 0.0;

  // -- correctness -------------------------------------------------------------
  bool total_exact = false;    // protocol total == ground truth population
  bool exactly_once = false;   // strict per-vehicle check (lossless FIFO)
  std::int64_t protocol_total = 0;
  std::int64_t collected_total = 0;
  std::int64_t truth = 0;
  std::uint64_t double_counted = 0;

  // -- bookkeeping ---------------------------------------------------------------
  std::size_t population = 0;
  std::size_t checkpoints = 0;
  std::uint64_t steps = 0;
  std::uint64_t sim_events = 0;       // events through the engine's buffer
  std::uint64_t transits = 0;
  std::uint64_t total_spawned = 0;
  std::size_t peak_vehicle_slots = 0;  // peak concurrent vehicles (slot store)
  std::size_t total_lanes = 0;          // map size the engine must NOT pay for
  std::size_t peak_occupied_lanes = 0;  // worklist high-water mark
  std::string collection_debug;  // non-empty when collection did not converge
  counting::ProtocolStats protocol_stats;
  std::uint64_t channel_failures = 0;
  double sim_minutes = 0.0;
  double wall_seconds = 0.0;
};

// Instrumentation points for a scenario run. The differential-testing
// harness (src/testing/) uses these to run the same fully-wired scenario —
// demand, protocol, oracle, patrol — on a substitute engine (the reference
// kernel, or a deliberately broken engine under test), to fingerprint the
// event stream, and to validate every route continuation. All members are
// optional; a default-constructed RunHooks reproduces run_scenario exactly.
struct RunHooks {
  // Engine factory; defaults to a plain SimEngine. The returned engine must
  // be freshly constructed from exactly `net` and `sim` (the runner derives
  // `sim.seed` before calling).
  std::function<std::unique_ptr<traffic::SimEngine>(const roadnet::RoadNetwork& net,
                                                    traffic::SimConfig sim)>
      make_engine;
  // Registered on the engine after the protocol (events are delivered by
  // value, so observer order cannot change what each observer sees).
  std::vector<traffic::SimObserver*> observers;
  // Wraps every demand-planned route continuation; may inspect/validate and
  // must return the route to use (normally `planned`, unmodified).
  std::function<traffic::Route(traffic::VehicleId, roadnet::NodeId, traffic::Route planned)>
      filter_continuation;
};

// The scenario's road network: its map factory's topology, or else the
// Manhattan grid; border gateways only when the system runs open.
[[nodiscard]] roadnet::RoadNetwork build_network(const ScenarioConfig& config);

// Execute one scenario to convergence (or the time limit).
[[nodiscard]] RunMetrics run_scenario(const ScenarioConfig& config);

}  // namespace ivc::experiment

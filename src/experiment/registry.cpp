#include "experiment/registry.hpp"

#include <utility>

#include "roadnet/zoo.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace ivc::experiment {

namespace {

constexpr bool smoke(ScenarioScale scale) { return scale == ScenarioScale::Smoke; }

// Demand profiles: the default operating point on the paper's volume axis
// plus the fleet-size multiplier that makes the profile bite even when a
// sweep overrides the volume.
void apply_light(ScenarioConfig& c) {
  c.volume_pct = 20.0;
  c.vehicles_at_100pct = c.vehicles_at_100pct / 2;
  c.arrival_rate_at_100pct *= 0.5;
}
void apply_steady(ScenarioConfig& c) { c.volume_pct = 50.0; }
void apply_rush(ScenarioConfig& c) {
  c.volume_pct = 100.0;
  c.vehicles_at_100pct = c.vehicles_at_100pct * 3 / 2;
  c.arrival_rate_at_100pct *= 1.5;
}

void apply_common(ScenarioConfig& c, ScenarioScale scale) {
  c.protocol.channel_loss = 0.30;  // paper's lossy-wireless operating point
  c.time_limit_minutes = smoke(scale) ? 120.0 : 240.0;
}

// --- topology bases ---------------------------------------------------------

ScenarioConfig manhattan_base(ScenarioScale scale) {
  ScenarioConfig c;
  if (smoke(scale)) {
    c.map.streets = 6;
    c.map.avenues = 4;
  }
  c.vehicles_at_100pct = smoke(scale) ? 150 : 2000;
  c.arrival_rate_at_100pct = smoke(scale) ? 0.4 : 1.6;
  apply_common(c, scale);
  return c;
}

ScenarioConfig ring_radial_base(ScenarioScale scale) {
  ScenarioConfig c;
  roadnet::RingRadialConfig map;
  if (smoke(scale)) {
    map.rings = 2;
    map.spokes = 6;
  }
  c.map_name = "ring-radial";
  c.gateway_stride = 3;  // every 3rd outer-ring node when open
  c.map_factory = [map](int stride) {
    auto m = map;
    m.gateway_stride = stride;
    return roadnet::make_ring_radial(m);
  };
  c.vehicles_at_100pct = smoke(scale) ? 80 : 800;
  c.arrival_rate_at_100pct = smoke(scale) ? 0.25 : 0.8;
  apply_common(c, scale);
  return c;
}

ScenarioConfig highway_base(ScenarioScale scale) {
  ScenarioConfig c;
  roadnet::HighwayConfig map;
  if (smoke(scale)) map.interchanges = 4;
  c.map_name = "highway-corridor";
  c.gateway_stride = 1;  // ramps at every interchange when open
  c.map_factory = [map](int stride) {
    auto m = map;
    m.gateway_stride = stride;
    return roadnet::make_highway_corridor(m);
  };
  c.vehicles_at_100pct = smoke(scale) ? 60 : 400;
  c.arrival_rate_at_100pct = smoke(scale) ? 0.25 : 0.8;
  apply_common(c, scale);
  return c;
}

ScenarioConfig roundabout_town_base(ScenarioScale scale) {
  ScenarioConfig c;
  roadnet::RoundaboutTownConfig map;
  if (smoke(scale)) {
    map.rows = 3;
    map.cols = 3;
  }
  c.map_name = "roundabout-town";
  c.gateway_stride = 4;
  c.map_factory = [map](int stride) {
    auto m = map;
    m.gateway_stride = stride;
    return roadnet::make_roundabout_town(m);
  };
  c.vehicles_at_100pct = smoke(scale) ? 60 : 600;
  c.arrival_rate_at_100pct = smoke(scale) ? 0.25 : 0.8;
  apply_common(c, scale);
  return c;
}

ScenarioConfig random_web_base(ScenarioScale scale) {
  ScenarioConfig c;
  roadnet::RandomWebConfig map;
  if (smoke(scale)) map.nodes = 16;
  c.map_name = "random-web";
  c.gateway_stride = 8;
  c.map_factory = [map](int stride) {
    auto m = map;
    m.gateway_stride = stride;
    return roadnet::make_random_web(m);
  };
  c.vehicles_at_100pct = smoke(scale) ? 100 : 800;
  c.arrival_rate_at_100pct = smoke(scale) ? 0.25 : 0.8;
  // Irregular webs have rarely-driven directed edges — the paper's "odd
  // traffic pattern" regime — so these scenarios deploy the Theorem 3/4
  // patrol fleet that bounds the label-handoff stall.
  c.num_patrol = 2;
  apply_common(c, scale);
  // Sparse-edge convergence is the slowest in the zoo; give it headroom.
  c.time_limit_minutes = smoke(scale) ? 240.0 : 360.0;
  return c;
}

// --- named scenarios --------------------------------------------------------

ScenarioConfig manhattan_closed_rush(ScenarioScale s) {
  auto c = manhattan_base(s);
  c.mode = SystemMode::Closed;
  apply_rush(c);
  return c;
}
ScenarioConfig manhattan_open_steady(ScenarioScale s) {
  auto c = manhattan_base(s);
  c.mode = SystemMode::Open;
  c.gateway_stride = 4;
  apply_steady(c);
  return c;
}
ScenarioConfig ring_radial_closed_steady(ScenarioScale s) {
  auto c = ring_radial_base(s);
  c.mode = SystemMode::Closed;
  apply_steady(c);
  return c;
}
ScenarioConfig ring_radial_open_rush(ScenarioScale s) {
  auto c = ring_radial_base(s);
  c.mode = SystemMode::Open;
  apply_rush(c);
  return c;
}
ScenarioConfig highway_open_steady(ScenarioScale s) {
  auto c = highway_base(s);
  c.mode = SystemMode::Open;
  apply_steady(c);
  return c;
}
ScenarioConfig highway_closed_light(ScenarioScale s) {
  auto c = highway_base(s);
  c.mode = SystemMode::Closed;
  apply_light(c);
  return c;
}
ScenarioConfig roundabout_town_closed_steady(ScenarioScale s) {
  auto c = roundabout_town_base(s);
  c.mode = SystemMode::Closed;
  apply_steady(c);
  return c;
}
ScenarioConfig roundabout_town_lossless(ScenarioScale s) {
  auto c = roundabout_town_base(s);
  c.mode = SystemMode::Closed;
  apply_steady(c);
  c.protocol.channel_loss = 0.0;  // Alg. 1's lossless model
  return c;
}
// --- sparse city-scale scenarios --------------------------------------------
//
// Probe-level traffic on city-scale maps (the regime of probe-based
// counting: Aljamal et al., arXiv:2001.01119; measurement-location
// diversification: Inoue et al., arXiv:2606.07556). A few hundred vehicles
// occupy a map with thousands of lanes, so per-step engine cost must track
// occupancy, not map size — `metro-grid-sparse` is the repo benchmark's
// sparse-served workload, the perf regression guard for the engine's
// occupied-lane worklist.

ScenarioConfig metro_grid_sparse(ScenarioScale s) {
  ScenarioConfig c;
  c.map.streets = smoke(s) ? 16 : 48;
  c.map.avenues = smoke(s) ? 16 : 48;
  c.vehicles_at_100pct = smoke(s) ? 320 : 1600;
  c.arrival_rate_at_100pct = 0.2;
  apply_common(c, s);
  c.mode = SystemMode::Closed;
  c.volume_pct = 25.0;  // ~400 probes on ~14k lanes at full scale
  // These are constitution/perf-guard scenarios: report ferrying across a
  // city-scale map at probe density takes sim-days (the existing zoo
  // scenarios keep collection covered), so they gate on constitution.
  c.protocol.collection = false;
  // Label coverage of every directed edge of a 48x48 grid by a few hundred
  // roaming probes is a long (sim-time) tail; steps are cheap when the
  // engine cost is occupancy-bound, so the generous limit is fine.
  c.time_limit_minutes = smoke(s) ? 360.0 : 960.0;
  return c;
}

ScenarioConfig highway_web_sparse(ScenarioScale s) {
  ScenarioConfig c;
  roadnet::RandomWebConfig map;
  map.nodes = smoke(s) ? 48 : 512;
  map.radius = smoke(s) ? 1400.0 : 2400.0;
  map.speed_limit = util::mph_to_mps(45.0);
  map.extra_edge_factor = 1.2;
  map.two_way_fraction = 0.4;
  map.lanes = smoke(s) ? 2 : 3;  // highway mainlines: wide and mostly empty
  c.map_name = "random-web";
  c.gateway_stride = 8;
  c.map_factory = [map](int stride) {
    auto m = map;
    m.gateway_stride = stride;
    return roadnet::make_random_web(m);
  };
  c.vehicles_at_100pct = smoke(s) ? 240 : 320;
  c.arrival_rate_at_100pct = 0.2;
  // Rarely-driven chords stall the label handoff; the Theorem 3/4 patrol
  // fleet bounds that tail. Worst-case marker coverage is one patrol gap:
  // covering-cycle length / (patrols x 45 mph), ~310 min at this sizing.
  c.num_patrol = smoke(s) ? 2 : 12;
  apply_common(c, s);
  c.mode = SystemMode::Closed;
  c.volume_pct = 25.0;
  c.protocol.collection = false;  // constitution/perf guard, like metro-grid
  c.time_limit_minutes = smoke(s) ? 360.0 : 1440.0;
  return c;
}

ScenarioConfig random_web_closed_steady(ScenarioScale s) {
  auto c = random_web_base(s);
  c.mode = SystemMode::Closed;
  apply_steady(c);
  return c;
}
ScenarioConfig random_web_heavy_loss(ScenarioScale s) {
  auto c = random_web_base(s);
  c.mode = SystemMode::Closed;
  apply_steady(c);
  c.protocol.channel_loss = 0.50;  // well past the paper's 30% operating point
  // Retransmissions at 50% loss stretch the collection tail further still.
  c.time_limit_minutes *= 2.0;
  return c;
}

}  // namespace

void ScenarioRegistry::add(NamedScenario scenario) {
  IVC_ASSERT_MSG(find(scenario.name) == nullptr, "duplicate scenario name");
  IVC_ASSERT(scenario.make != nullptr);
  entries_.push_back(std::move(scenario));
}

const NamedScenario* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    r.add({"manhattan-closed-rush", "manhattan", "rush",
           "paper Figs. 2/3 grid at peak volume, borders sealed", manhattan_closed_rush});
    r.add({"manhattan-open-steady", "manhattan", "steady",
           "paper Figs. 4/5 grid with perimeter gateway interaction",
           manhattan_open_steady});
    r.add({"ring-radial-closed-steady", "ring-radial", "steady",
           "European ring/radial city around a roundabout plaza",
           ring_radial_closed_steady});
    r.add({"ring-radial-open-rush", "ring-radial", "rush",
           "ring/radial city at peak volume with outer-ring gateways",
           ring_radial_open_rush});
    r.add({"highway-open-steady", "highway-corridor", "steady",
           "dual carriageway with on/off-ramp interaction at every interchange",
           highway_open_steady});
    r.add({"highway-closed-light", "highway-corridor", "light",
           "sparse closed corridor — the protocol's hardest label-handoff regime",
           highway_closed_light});
    r.add({"roundabout-town-closed-steady", "roundabout-town", "steady",
           "grid town where every intersection is a roundabout",
           roundabout_town_closed_steady});
    r.add({"roundabout-town-lossless", "roundabout-town", "steady",
           "roundabout town under the lossless channel of Alg. 1",
           roundabout_town_lossless});
    r.add({"random-web-closed-steady", "random-web", "steady",
           "random strongly-connected web — no regularity to lean on",
           random_web_closed_steady});
    r.add({"random-web-heavy-loss", "random-web", "steady",
           "random web with 50% channel loss (stress past the paper's 30%)",
           random_web_heavy_loss});
    r.add({"metro-grid-sparse", "manhattan", "sparse",
           "city-scale 48x48 grid at probe density — cost must track occupancy",
           metro_grid_sparse});
    r.add({"highway-web-sparse", "random-web", "sparse",
           "large sparse web at 45 mph with a patrol fleet bounding the handoff tail",
           highway_web_sparse});
    return r;
  }();
  return registry;
}

}  // namespace ivc::experiment

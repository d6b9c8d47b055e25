#include "traffic/demand.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ivc::traffic {

namespace {

// U.S. fleet-style mixes; exact values only need to be plausible — the
// protocol is attribute-agnostic except for the specified-type extension.
constexpr struct {
  Color color;
  double weight;
} kColorMix[] = {
    {Color::White, 22}, {Color::Black, 19}, {Color::Silver, 14}, {Color::Gray, 16},
    {Color::Red, 10},   {Color::Blue, 9},   {Color::Green, 5},   {Color::Yellow, 5},
};

constexpr struct {
  BodyType type;
  double weight;
} kTypeMix[] = {
    {BodyType::Sedan, 55}, {BodyType::Suv, 20},       {BodyType::Van, 10},
    {BodyType::Truck, 8},  {BodyType::Bus, 4},        {BodyType::Motorcycle, 3},
};

template <typename Table>
auto sample_weighted(const Table& table, util::Rng& rng) {
  double total = 0.0;
  for (const auto& row : table) total += row.weight;
  double pick = rng.uniform(0.0, total);
  for (const auto& row : table) {
    pick -= row.weight;
    if (pick <= 0.0) return row;
  }
  return table[0];
}

}  // namespace

DemandModel::DemandModel(SimEngine& engine, Router& router, DemandConfig config)
    : engine_(engine),
      router_(router),
      config_(config),
      rng_(util::derive_seed(config.seed, "demand")),
      replan_seed_(util::derive_seed(config.seed, "replan")) {
  IVC_ASSERT(config_.volume_pct > 0.0);
  for (const auto& seg : engine_.network().segments()) {
    if (seg.is_inbound_gateway()) inbound_gateways_.push_back(seg.id);
  }
  for (const auto& node : engine_.network().intersections()) {
    if (!node.gateway_out.empty()) exit_nodes_.push_back(node.id);
  }
}

std::size_t DemandModel::target_population() const {
  return static_cast<std::size_t>(static_cast<double>(config_.vehicles_at_100pct) *
                                  config_.volume_pct / 100.0);
}

ExteriorAttributes DemandModel::sample_attributes() {
  ExteriorAttributes attrs;
  attrs.color = sample_weighted(kColorMix, rng_).color;
  attrs.type = sample_weighted(kTypeMix, rng_).type;
  attrs.brand =
      static_cast<Brand>(rng_.uniform_index(static_cast<std::uint64_t>(Brand::kCount)));
  return attrs;
}

double DemandModel::speed_factor() {
  return std::clamp(rng_.normal(1.0, 0.08), 0.85, 1.2);
}

Route DemandModel::roam_route(roadnet::NodeId node, util::StreamRng& rng) {
  Route route;
  const roadnet::NodeId dest = router_.random_destination(node, rng);
  route.edges = router_.plan(node, dest, rng);
  return route;
}

Route DemandModel::exit_route(roadnet::NodeId node, util::StreamRng& rng) {
  Route route;
  if (exit_nodes_.empty()) return route;
  const roadnet::NodeId gw = exit_nodes_[rng.uniform_index(exit_nodes_.size())];
  if (gw != node) {
    route.edges = router_.plan(node, gw, rng);
    if (route.edges.empty()) return route;  // unreachable under exclusions; roam instead
  }
  const auto& out = engine_.network().intersection(gw).gateway_out;
  route.edges.push_back(out[rng.uniform_index(out.size())]);
  return route;
}

std::size_t DemandModel::init_population() {
  const auto& net = engine_.network();
  // Interior edges weighted by lane-kilometers so density is uniform.
  std::vector<roadnet::EdgeId> interior;
  std::vector<double> cumulative;
  double total = 0.0;
  for (const auto& seg : net.segments()) {
    if (seg.is_gateway()) continue;
    interior.push_back(seg.id);
    total += seg.length * seg.lanes;
    cumulative.push_back(total);
  }
  IVC_ASSERT(!interior.empty());

  const std::size_t target = target_population();
  std::size_t placed = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = target * 50 + 100;
  while (placed < target && attempts < max_attempts) {
    ++attempts;
    const double pick = rng_.uniform(0.0, total);
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), pick);
    const auto& seg = net.segment(interior[static_cast<std::size_t>(it - cumulative.begin())]);
    const int lane = static_cast<int>(rng_.uniform_index(static_cast<std::uint64_t>(seg.lanes)));
    const double pos = rng_.uniform(0.0, seg.length * 0.95);
    // One sequential draw seeds a stream per placement; the route draws
    // then come from that stream (the serial analogue of the per-vehicle
    // streams plan_continuation uses).
    util::StreamRng route_rng(rng_.next());
    Route route = roam_route(seg.to, route_rng);
    const VehicleId id =
        engine_.spawn_at(seg.id, lane, pos, sample_attributes(), std::move(route),
                         speed_factor());
    if (id.valid()) {
      ++placed;
      ++spawned_total_;
    }
  }
  return placed;
}

void DemandModel::update() {
  if (inbound_gateways_.empty()) return;
  const double rate =
      config_.arrival_rate_at_100pct * config_.volume_pct / 100.0;  // vehicles/s
  arrival_budget_ += rate * engine_.dt();
  while (arrival_budget_ >= 1.0) {
    arrival_budget_ -= 1.0;
    const roadnet::EdgeId gw =
        inbound_gateways_[rng_.uniform_index(inbound_gateways_.size())];
    const roadnet::NodeId entry_node = engine_.network().segment(gw).to;
    util::StreamRng route_rng(rng_.next());
    Route route;
    if (rng_.bernoulli(config_.through_fraction)) {
      route = exit_route(entry_node, route_rng);
    }
    if (route.edges.empty()) route = roam_route(entry_node, route_rng);
    const VehicleId id = engine_.try_spawn_at_start(gw, sample_attributes(),
                                                    std::move(route), speed_factor());
    if (id.valid()) ++spawned_total_;
    // If the gateway was full the arrival is dropped — the outside world
    // queues are not modeled (the paper's region boundary behaves the same).
  }
}

Route DemandModel::plan_continuation(VehicleId vehicle, roadnet::NodeId node) {
  // Key the whole query to one draw from the vehicle's counter-based
  // stream: the engine calls this from inside the dynamics phase, and the
  // route a vehicle gets must not depend on which other vehicle replanned
  // first.
  util::StreamRng rng(util::derive_seed(replan_seed_, engine_.draw_for(vehicle)));
  if (!exit_nodes_.empty() && rng.bernoulli(config_.exit_probability)) {
    Route route = exit_route(node, rng);
    if (!route.edges.empty()) return route;
  }
  return roam_route(node, rng);
}

}  // namespace ivc::traffic

#include "serve/world.hpp"

#include <algorithm>

#include "roadnet/patrol_planner.hpp"
#include "util/stats.hpp"

namespace ivc::serve {

SimWorld::SimWorld(const experiment::ScenarioConfig& config, Mode mode,
                   const experiment::EngineFactory& make_engine)
    : config_(config) {
  wall_start_nanos_ = util::steady_now_nanos();

  net_ = experiment::build_network(config_);

  traffic::SimConfig sim = config_.sim;
  sim.seed = util::derive_seed(config_.seed, "engine");
  engine_ = make_engine ? make_engine(net_, sim) : std::make_unique<traffic::SimEngine>(net_, sim);
  engine_->set_perf(config_.perf);

  router_ = std::make_unique<traffic::Router>(net_, util::derive_seed(config_.seed, "router"));

  traffic::DemandConfig demand_config;
  demand_config.volume_pct = config_.volume_pct;
  demand_config.vehicles_at_100pct = config_.vehicles_at_100pct;
  demand_config.arrival_rate_at_100pct = config_.arrival_rate_at_100pct;
  demand_config.seed = util::derive_seed(config_.seed, "demand");
  demand_ = std::make_unique<traffic::DemandModel>(*engine_, *router_, demand_config);
  engine_->set_route_planner([this](traffic::VehicleId veh, roadnet::NodeId node) {
    return demand_->plan_continuation(veh, node);
  });

  counting::ProtocolConfig protocol_config = config_.protocol;
  protocol_config.seed = util::derive_seed(config_.seed, "protocol");
  protocol_ = std::make_unique<counting::CountingProtocol>(*engine_, protocol_config);
  oracle_ = std::make_unique<counting::Oracle>(
      *engine_, surveillance::Recognizer(protocol_config.target));
  protocol_->set_oracle(oracle_.get());

  if (config_.num_patrol > 0) {
    patrol_ = std::make_unique<counting::PatrolFleet>(
        *engine_, roadnet::plan_patrol_route(net_, roadnet::NodeId{0}));
  }

  limit_ = util::SimTime::from_minutes(config_.time_limit_minutes);
  want_collection_ = protocol_config.collection;
  check_every_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(5.0 / config_.sim.dt));

  if (mode == Mode::Fresh) {
    if (patrol_) patrol_->deploy(config_.num_patrol);
    population_ = demand_->init_population();
    protocol_->designate_seeds(
        protocol_->choose_random_seeds(static_cast<std::size_t>(config_.num_seeds)));
    protocol_->start();
  }
  // Mode::Restore: everything above is structure only; population, seeds,
  // started flag, patrol vehicles and all counters arrive via restore().
}

void SimWorld::step() {
  {
    util::PerfTimer timer(config_.perf, util::PerfPhase::Demand);
    demand_->update();
  }
  engine_->step();
  if (engine_->step_count() % check_every_ != 0) return;
  if (!saw_all_active_ && protocol_->all_active()) {
    saw_all_active_ = true;
    time_all_active_min_ = engine_->now().minutes();
  }
  const bool stable = protocol_->all_stable();
  const bool collected = !want_collection_ || protocol_->collection_complete();
  if (stable && collected && protocol_->quiescent()) converged_ = true;
}

bool SimWorld::done() const { return converged_ || engine_->now() >= limit_; }

experiment::RunMetrics SimWorld::finish() {
  experiment::RunMetrics metrics;
  metrics.population = population_;
  metrics.checkpoints = net_.num_intersections();
  metrics.time_all_active_min = time_all_active_min_;

  metrics.constitution_converged = protocol_->all_stable();
  metrics.collection_converged = want_collection_ && protocol_->collection_complete();
  metrics.quiescent = protocol_->quiescent();
  if (want_collection_ && !metrics.collection_converged) {
    metrics.collection_debug = protocol_->debug_collection_state();
  }
  metrics.sim_minutes = engine_->now().minutes();

  util::RunningStats constitution;
  for (const auto& cp : protocol_->checkpoints()) {
    if (cp.is_stable()) constitution.add(cp.stable_time().minutes());
  }
  if (!constitution.empty()) {
    metrics.constitution_max_min = constitution.max();
    metrics.constitution_min_min = constitution.min();
    metrics.constitution_avg_min = constitution.mean();
  }

  if (metrics.collection_converged) {
    util::RunningStats collection;
    for (const roadnet::NodeId seed : protocol_->seeds()) {
      collection.add(protocol_->checkpoint(seed).report_time().minutes());
    }
    metrics.collection_max_min = collection.max();
    metrics.collection_min_min = collection.min();
    metrics.collection_avg_min = collection.mean();
    metrics.collected_total = protocol_->collected_total();
  }

  metrics.protocol_total = protocol_->live_total();
  metrics.truth = oracle_->true_population();
  metrics.total_exact = oracle_->verify_total(metrics.protocol_total).ok;
  metrics.exactly_once = oracle_->verify_exactly_once().ok;
  metrics.double_counted = oracle_->double_counted_vehicles();
  metrics.protocol_stats = protocol_->stats();
  metrics.channel_failures = protocol_->channel().failures();
  metrics.steps = engine_->step_count();
  metrics.sim_events = engine_->events_emitted();
  metrics.transits = engine_->total_transits();
  metrics.total_spawned = engine_->total_spawned();
  metrics.peak_vehicle_slots = engine_->vehicle_slot_count();
  metrics.total_lanes = engine_->total_lanes();
  metrics.peak_occupied_lanes = engine_->peak_occupied_lanes();
  metrics.wall_seconds =
      static_cast<double>(util::steady_now_nanos() - wall_start_nanos_) * 1e-9;
  return metrics;
}

void SimWorld::save(Snapshot& snap) const { SnapshotAccess::save(*this, snap); }

void SimWorld::restore(const Snapshot& snap) { SnapshotAccess::restore(*this, snap); }

}  // namespace ivc::serve

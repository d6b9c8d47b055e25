#include "testing/diff_runner.hpp"

#include <utility>

#include "experiment/registry.hpp"
#include "serve/world.hpp"
#include "testing/reference_kernel.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace ivc::testing {

// ---- EventStreamHasher ------------------------------------------------------

void EventStreamHasher::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (i * 8)) & 0xff;
    hash_ *= 1099511628211ull;  // FNV-1a prime
  }
}

bool EventStreamHasher::countable(traffic::VehicleId id) const {
  // During the flush the record is still addressable even for vehicles
  // despawned this step (the engine defers slot recycling).
  const auto veh = engine_->find_vehicle(id);
  return veh.has_value() && !veh->is_patrol();
}

void EventStreamHasher::on_spawn(const traffic::SpawnEvent& e) {
  ++events_;
  mix(1);
  mix(static_cast<std::uint64_t>(e.time.millis()));
  mix(e.vehicle.value());
  mix(e.edge.value());
  if (!engine_->network().segment(e.edge).is_gateway() && countable(e.vehicle)) {
    ++ledger_population_;
  }
}

void EventStreamHasher::on_transit(const traffic::TransitEvent& e) {
  ++events_;
  mix(2);
  mix(static_cast<std::uint64_t>(e.time.millis()));
  mix(e.vehicle.value());
  mix(e.node.value());
  mix(e.from_edge.value());
  mix(e.to_edge.value());
  mix(e.from_entry_seq);
  const bool was_inside = !engine_->network().segment(e.from_edge).is_gateway();
  const bool now_inside = !engine_->network().segment(e.to_edge).is_gateway();
  if (was_inside != now_inside && countable(e.vehicle)) {
    ledger_population_ += now_inside ? 1 : -1;
  }
}

void EventStreamHasher::on_overtake(const traffic::OvertakeEvent& e) {
  ++events_;
  mix(3);
  mix(static_cast<std::uint64_t>(e.time.millis()));
  mix(e.edge.value());
  mix(e.watched.value());
  mix(e.other.value());
  mix(e.other_now_ahead ? 1 : 0);
}

void EventStreamHasher::on_despawn(const traffic::DespawnEvent& e) {
  // A despawn happens on an outbound gateway, which the vehicle already
  // left the interior for at its last transit — no ledger movement.
  ++events_;
  mix(4);
  mix(static_cast<std::uint64_t>(e.time.millis()));
  mix(e.vehicle.value());
  mix(e.edge.value());
}

// ---- digests ----------------------------------------------------------------

namespace {

// Steps `world` once and cross-checks the protocol's running aggregates
// against their full-scan recount; `failure` keeps the first mismatch.
void step_checked(serve::SimWorld& world, std::string& failure) {
  world.step();
  if (failure.empty() && !world.protocol().debug_aggregates_consistent()) {
    failure = util::format("protocol aggregates disagree with a full scan after step %llu",
                           static_cast<unsigned long long>(world.engine().step_count()));
  }
}

RunDigest run_digest(const experiment::ScenarioConfig& config, const EngineFactory& factory,
                     bool reference) {
  RunDigest digest;
  EventStreamHasher hasher;
  ReferenceKernel* kernel = nullptr;  // set when `reference`
  const roadnet::RoadNetwork* netp = nullptr;

  experiment::RunHooks hooks;
  hooks.make_engine = [&](const roadnet::RoadNetwork& net, traffic::SimConfig sim)
      -> std::unique_ptr<traffic::SimEngine> {
    std::unique_ptr<traffic::SimEngine> engine;
    if (reference) {
      auto ref = std::make_unique<ReferenceKernel>(net, sim);
      kernel = ref.get();
      engine = std::move(ref);
    } else if (factory) {
      engine = factory(net, sim);
    } else {
      engine = std::make_unique<traffic::SimEngine>(net, sim);
    }
    hasher.bind(engine.get());
    netp = &net;
    return engine;
  };
  hooks.observers = {&hasher};
  if (reference) {
    // The slow run also cross-checks every route continuation against the
    // naive-Dijkstra reference (jitter-envelope cost bound + continuity).
    hooks.filter_continuation = [&](traffic::VehicleId, roadnet::NodeId node,
                                    traffic::Route planned) {
      std::string fail = validate_continuation(*netp, node, planned);
      if (!fail.empty() && kernel != nullptr) kernel->record_violation(std::move(fail));
      return planned;
    };
  }
  hooks.on_finish = [&](const traffic::SimEngine& engine,
                        const counting::CountingProtocol& protocol,
                        const counting::Oracle& oracle) {
    digest.population_inside = static_cast<std::int64_t>(engine.population_inside());
    digest.truth = oracle.true_population();
    digest.checkpoint_totals.reserve(protocol.checkpoints().size());
    for (const auto& cp : protocol.checkpoints()) {
      digest.checkpoint_totals.push_back(cp.local_total());
    }
    // Harvest the reference kernel's findings while the engine is alive.
    if (kernel != nullptr) {
      digest.violations = kernel->violations();
      if (kernel->violation_count() > digest.violations.size()) {
        digest.violations.push_back(
            util::format("... %llu further violations suppressed",
                         static_cast<unsigned long long>(kernel->violation_count() -
                                                         digest.violations.size())));
      }
    }
  };

  // run_scenario_with's loop, with the aggregates checked after every step.
  std::string failure;
  serve::SimWorld world(config, hooks);
  while (!world.done()) step_checked(world, failure);
  const experiment::RunMetrics metrics = world.finish();
  if (!failure.empty()) digest.violations.insert(digest.violations.begin(), failure);

  digest.event_hash = hasher.hash();
  digest.events = hasher.event_count();
  digest.ledger_population = hasher.ledger_population();
  digest.steps = metrics.steps;
  digest.transits = metrics.transits;
  digest.total_spawned = metrics.total_spawned;
  digest.protocol_total = metrics.protocol_total;
  digest.collected_total = metrics.collected_total;
  digest.double_counted = metrics.double_counted;
  digest.total_exact = metrics.total_exact;
  digest.exactly_once = metrics.exactly_once;
  digest.constitution_converged = metrics.constitution_converged;
  digest.collection_converged = metrics.collection_converged;
  digest.quiescent = metrics.quiescent;
  return digest;
}

// Save at step `snapshot_at`, serialize, parse back, restore into a fresh
// world, run to completion. The hasher is rebound across the two worlds,
// so the returned digest hashes the ORIGINAL run's events up to the cut
// plus the RESUMED run's events after it — exactly what an uninterrupted
// run must also produce. If the run converges before the cut, the save
// lands on the final step and the roundtrip degenerates to a save/restore
// of the finished state (still a real check: finish() must agree).
RunDigest run_digest_roundtrip(const experiment::ScenarioConfig& config,
                               const EngineFactory& factory, std::uint64_t snapshot_at) {
  RunDigest digest;
  EventStreamHasher hasher;

  experiment::RunHooks hooks;
  hooks.make_engine = [&](const roadnet::RoadNetwork& net, traffic::SimConfig sim)
      -> std::unique_ptr<traffic::SimEngine> {
    std::unique_ptr<traffic::SimEngine> engine =
        factory ? factory(net, sim) : std::make_unique<traffic::SimEngine>(net, sim);
    hasher.bind(engine.get());
    return engine;
  };
  hooks.observers = {&hasher};
  hooks.on_finish = [&](const traffic::SimEngine& engine,
                        const counting::CountingProtocol& protocol,
                        const counting::Oracle& oracle) {
    digest.population_inside = static_cast<std::int64_t>(engine.population_inside());
    digest.truth = oracle.true_population();
    digest.checkpoint_totals.reserve(protocol.checkpoints().size());
    for (const auto& cp : protocol.checkpoints()) {
      digest.checkpoint_totals.push_back(cp.local_total());
    }
  };

  serve::SimWorld original(config, hooks);
  // Saving before the first step is illegal (the initial placement's spawn
  // events are still buffered), so the cut point is at least step 1.
  std::string failure;
  do {
    step_checked(original, failure);
  } while (!original.done() && original.engine().step_count() < snapshot_at);

  serve::Snapshot snap;
  original.save(snap);
  const std::vector<std::uint8_t> bytes = snap.to_bytes();
  const serve::Snapshot parsed = serve::Snapshot::from_bytes(bytes);

  serve::SimWorld resumed(config, hooks, serve::SimWorld::Mode::Restore);
  resumed.restore(parsed);
  if (failure.empty() && !resumed.protocol().debug_aggregates_consistent()) {
    failure = "protocol aggregates disagree with a full scan after restore";
  }
  while (!resumed.done()) step_checked(resumed, failure);
  const experiment::RunMetrics metrics = resumed.finish();
  if (!failure.empty()) digest.violations.push_back(failure);

  digest.event_hash = hasher.hash();
  digest.events = hasher.event_count();
  digest.ledger_population = hasher.ledger_population();
  digest.steps = metrics.steps;
  digest.transits = metrics.transits;
  digest.total_spawned = metrics.total_spawned;
  digest.protocol_total = metrics.protocol_total;
  digest.collected_total = metrics.collected_total;
  digest.double_counted = metrics.double_counted;
  digest.total_exact = metrics.total_exact;
  digest.exactly_once = metrics.exactly_once;
  digest.constitution_converged = metrics.constitution_converged;
  digest.collection_converged = metrics.collection_converged;
  digest.quiescent = metrics.quiescent;
  return digest;
}

// First-divergence report, most-specific signal first: reference-side
// invariant/route violations beat a plain hash mismatch in diagnosability.
std::string compare(const RunDigest& fast, const RunDigest& ref) {
  if (!ref.violations.empty()) {
    return "reference invariant violation: " + ref.violations.front();
  }
  if (!fast.violations.empty()) return "invariant violation: " + fast.violations.front();
  const auto mismatch = [](const char* field, auto a, auto b) {
    return util::format("%s: fast=%lld reference=%lld", field, static_cast<long long>(a),
                        static_cast<long long>(b));
  };
  if (fast.steps != ref.steps) return mismatch("steps", fast.steps, ref.steps);
  if (fast.events != ref.events) return mismatch("events", fast.events, ref.events);
  if (fast.event_hash != ref.event_hash) {
    return util::format("event_hash: fast=%016llx reference=%016llx",
                        static_cast<unsigned long long>(fast.event_hash),
                        static_cast<unsigned long long>(ref.event_hash));
  }
  if (fast.transits != ref.transits) return mismatch("transits", fast.transits, ref.transits);
  if (fast.total_spawned != ref.total_spawned) {
    return mismatch("total_spawned", fast.total_spawned, ref.total_spawned);
  }
  if (fast.population_inside != ref.population_inside) {
    return mismatch("population_inside", fast.population_inside, ref.population_inside);
  }
  if (fast.ledger_population != ref.ledger_population) {
    return mismatch("ledger_population", fast.ledger_population, ref.ledger_population);
  }
  if (fast.truth != ref.truth) return mismatch("truth", fast.truth, ref.truth);
  if (fast.protocol_total != ref.protocol_total) {
    return mismatch("protocol_total", fast.protocol_total, ref.protocol_total);
  }
  if (fast.collected_total != ref.collected_total) {
    return mismatch("collected_total", fast.collected_total, ref.collected_total);
  }
  if (fast.double_counted != ref.double_counted) {
    return mismatch("double_counted", fast.double_counted, ref.double_counted);
  }
  if (fast.total_exact != ref.total_exact) {
    return mismatch("total_exact", fast.total_exact, ref.total_exact);
  }
  if (fast.exactly_once != ref.exactly_once) {
    return mismatch("exactly_once", fast.exactly_once, ref.exactly_once);
  }
  if (fast.constitution_converged != ref.constitution_converged) {
    return mismatch("constitution_converged", fast.constitution_converged,
                    ref.constitution_converged);
  }
  if (fast.collection_converged != ref.collection_converged) {
    return mismatch("collection_converged", fast.collection_converged,
                    ref.collection_converged);
  }
  if (fast.quiescent != ref.quiescent) return mismatch("quiescent", fast.quiescent, ref.quiescent);
  if (fast.checkpoint_totals != ref.checkpoint_totals) {
    for (std::size_t i = 0;
         i < std::min(fast.checkpoint_totals.size(), ref.checkpoint_totals.size()); ++i) {
      if (fast.checkpoint_totals[i] != ref.checkpoint_totals[i]) {
        return util::format("checkpoint %zu local total: fast=%lld reference=%lld", i,
                            static_cast<long long>(fast.checkpoint_totals[i]),
                            static_cast<long long>(ref.checkpoint_totals[i]));
      }
    }
    return util::format("checkpoint count: fast=%zu reference=%zu",
                        fast.checkpoint_totals.size(), ref.checkpoint_totals.size());
  }
  return {};
}

}  // namespace

RunDigest run_digest_fast(const experiment::ScenarioConfig& config,
                          const EngineFactory& factory) {
  return run_digest(config, factory, /*reference=*/false);
}

RunDigest run_digest_reference(const experiment::ScenarioConfig& config) {
  return run_digest(config, {}, /*reference=*/true);
}

DiffResult diff_config(const experiment::ScenarioConfig& config,
                       const EngineFactory& fast_factory) {
  DiffResult result;
  result.summary = config.describe();
  result.fast = run_digest_fast(config, fast_factory);
  result.reference = run_digest_reference(config);
  result.divergence = compare(result.fast, result.reference);
  result.match = result.divergence.empty();
  return result;
}

DiffResult diff_case(std::uint64_t case_seed, const EngineFactory& fast_factory) {
  const FuzzCase fc = make_fuzz_case(case_seed);
  DiffResult result = diff_config(fc.config, fast_factory);
  result.case_seed = case_seed;
  result.summary = fc.summary;
  return result;
}

DiffResult diff_config_snapshot(const experiment::ScenarioConfig& config,
                                std::int64_t snapshot_at, const EngineFactory& fast_factory) {
  std::uint64_t cut = 0;
  if (snapshot_at > 0) {
    cut = static_cast<std::uint64_t>(snapshot_at);
  } else {
    // Pseudo-random cut in [1, max steps], derived from the config seed so
    // every bank case probes a different point in its own history.
    const auto max_steps = static_cast<std::uint64_t>(
        config.time_limit_minutes * 60.0 / config.sim.dt);
    const std::uint64_t span = max_steps > 0 ? max_steps : 1;
    cut = 1 + util::counter_mix(config.seed, span) % span;
  }

  DiffResult result;
  result.summary = util::format("%s [snapshot@%llu roundtrip]", config.describe().c_str(),
                                static_cast<unsigned long long>(cut));
  result.fast = run_digest_roundtrip(config, fast_factory, cut);
  result.reference = run_digest_fast(config, fast_factory);
  result.divergence = compare(result.fast, result.reference);
  result.match = result.divergence.empty();
  return result;
}

DiffResult diff_case_snapshot(std::uint64_t case_seed, std::int64_t snapshot_at,
                              const EngineFactory& fast_factory) {
  const FuzzCase fc = make_fuzz_case(case_seed);
  DiffResult result = diff_config_snapshot(fc.config, snapshot_at, fast_factory);
  result.case_seed = case_seed;
  result.summary = util::format("%s [snapshot roundtrip]", fc.summary.c_str());
  return result;
}

std::optional<DiffResult> diff_named_scenario_snapshot(std::string_view name,
                                                       std::int64_t snapshot_at) {
  const experiment::NamedScenario* scenario =
      experiment::ScenarioRegistry::builtin().find(name);
  if (scenario == nullptr) return std::nullopt;
  DiffResult result =
      diff_config_snapshot(scenario->make(experiment::ScenarioScale::Smoke), snapshot_at);
  result.summary = scenario->name + ": " + result.summary;
  return result;
}

std::optional<DiffResult> diff_named_scenario(std::string_view name) {
  const experiment::NamedScenario* scenario =
      experiment::ScenarioRegistry::builtin().find(name);
  if (scenario == nullptr) return std::nullopt;
  DiffResult result = diff_config(scenario->make(experiment::ScenarioScale::Smoke));
  result.summary = scenario->name + ": " + result.summary;
  return result;
}

std::optional<ShrinkResult> shrink_case(std::uint64_t failing_seed,
                                        const EngineFactory& fast_factory) {
  ShrinkResult out;
  DiffResult current = diff_case(failing_seed, fast_factory);
  ++out.attempts;
  if (current.match) return std::nullopt;

  ShrinkSpec spec = unpack_shrink(failing_seed);
  const auto try_spec = [&](const ShrinkSpec& candidate, const char* what) {
    const std::uint64_t seed = with_shrink(failing_seed, candidate);
    DiffResult attempt = diff_case(seed, fast_factory);
    ++out.attempts;
    if (!attempt.match) {
      spec = candidate;
      current = std::move(attempt);
      out.trail.push_back(what);
      return true;
    }
    return false;
  };

  // Greedy, cheapest reduction first: run length, then demand, then map
  // scale. Each accepted step keeps the divergence; a rejected step is
  // simply skipped (the bug needed that dimension).
  for (int k = spec.length_halvings + 1; k <= 3; ++k) {
    ShrinkSpec candidate = spec;
    candidate.length_halvings = k;
    if (!try_spec(candidate, "halve run length")) break;
  }
  if (!spec.halve_demand) {
    ShrinkSpec candidate = spec;
    candidate.halve_demand = true;
    try_spec(candidate, "halve demand");
  }
  for (int k = spec.scale_steps + 1; k <= 3; ++k) {
    ShrinkSpec candidate = spec;
    candidate.scale_steps = k;
    if (!try_spec(candidate, "reduce topology scale")) break;
  }

  out.minimal_seed = with_shrink(failing_seed, spec);
  out.minimal = std::move(current);
  return out;
}

}  // namespace ivc::testing

#include "probes.hpp"

#include <algorithm>

#include "roadnet/manhattan.hpp"

namespace ivc::bench {

namespace {

double ms_since(std::uint64_t begin) {
  return static_cast<double>(util::steady_now_nanos() - begin) * 1e-6;
}

}  // namespace

RoundTrip snapshot_round_trip(const serve::SimWorld& world,
                              const experiment::ScenarioConfig& config, Tracer& tracer,
                              bool flip) {
  RoundTrip trip;
  trip.vehicles = world.engine().alive_count();
  try {
    serve::Snapshot snap;
    std::uint64_t t = util::steady_now_nanos();
    {
      const auto span = tracer.span("snapshot.capture");
      world.save(snap);
    }
    trip.capture_ms = ms_since(t);
    t = util::steady_now_nanos();
    std::vector<std::uint8_t> bytes;
    {
      const auto span = tracer.span("snapshot.encode");
      bytes = snap.to_bytes();
    }
    trip.encode_ms = ms_since(t);
    trip.bytes = bytes.size();
    trip.hash = fnv1a(bytes);
    for (const char* name : {"engine", "demand", "protocol", "oracle", "world"}) {
      trip.section_bytes[name] = snap.has_section(name) ? snap.section(name).size() : 0;
    }

    std::vector<std::uint8_t> sent = bytes;
    if (flip && !sent.empty()) sent[sent.size() / 2] ^= 0xFF;

    // Building the restoring world is excluded from the restore time; it
    // gets no collector, so it cannot disturb the run's phase totals.
    experiment::ScenarioConfig restore_config = config;
    restore_config.perf = nullptr;
    std::unique_ptr<serve::SimWorld> restored;
    {
      const auto span = tracer.span("world.construct_restore");
      restored = std::make_unique<serve::SimWorld>(restore_config, serve::SimWorld::Mode::Restore);
    }

    t = util::steady_now_nanos();
    serve::Snapshot decoded;
    {
      const auto span = tracer.span("snapshot.decode");
      decoded = serve::Snapshot::from_bytes(sent);
    }
    trip.decode_ms = ms_since(t);
    t = util::steady_now_nanos();
    {
      const auto span = tracer.span("snapshot.apply");
      restored->restore(decoded);
    }
    trip.apply_ms = ms_since(t);

    serve::Snapshot again;
    restored->save(again);
    trip.ok = again.to_bytes() == bytes;
    if (!trip.ok) trip.error = "restored world re-saves to different bytes";
  } catch (const serve::SnapshotError& e) {
    trip.ok = false;
    trip.error = std::string("SnapshotError: ") + e.what();
  } catch (const std::exception& e) {
    // Corrupt bytes should be rejected with SnapshotError; any other
    // exception (a corrupted count can reach an allocation and throw
    // std::bad_alloc) is still one failed round trip, not a crash.
    trip.ok = false;
    trip.error = std::string("not a SnapshotError: ") + e.what();
  }
  return trip;
}

bool view_consistent(const serve::ServiceView& view, std::uint64_t& last_step) {
  bool ok = view.step >= last_step;
  last_step = std::max(last_step, view.step);
  std::int64_t sum = 0;
  for (const serve::CheckpointCounts& cp : view.checkpoints) sum += cp.local_total;
  return ok && sum == view.live_total;
}

void time_route_planner(serve::SimWorld& world, Tracer& tracer) {
  world.engine().set_route_planner(
      [&world, &tracer](traffic::VehicleId vehicle, roadnet::NodeId node) {
        const auto span = tracer.span("router.plan");
        return world.demand().plan_continuation(vehicle, node);
      });
}

WorldRun drive_world(const experiment::ScenarioConfig& config, Tracer& tracer,
                     std::uint64_t cut_every, std::size_t max_cuts, bool flip_first_snapshot) {
  WorldRun run;
  std::uint64_t t = util::steady_now_nanos();
  std::unique_ptr<serve::SimWorld> world_ptr;
  {
    const auto span = tracer.span("world.construct");
    world_ptr = std::make_unique<serve::SimWorld>(config);
  }
  run.construct_s = seconds_between(t, util::steady_now_nanos());
  serve::SimWorld& world = *world_ptr;

  if (config.perf != nullptr) time_route_planner(world, tracer);

  std::uint64_t step_ns = 0;
  while (!world.done()) {
    run.vehicle_steps += world.engine().alive_count();
    t = util::steady_now_nanos();
    {
      const auto span = tracer.span("world.step");
      world.step();
    }
    const std::uint64_t dt = util::steady_now_nanos() - t;
    step_ns += dt;
    run.step_us.push_back(static_cast<float>(static_cast<double>(dt) * 1e-3));
    const std::uint64_t steps = world.engine().step_count();
    if (cut_every > 0 && steps % cut_every == 0 && run.trips.size() < max_cuts) {
      const bool flip = flip_first_snapshot && run.trips.empty();
      run.trips.push_back(snapshot_round_trip(world, config, tracer, flip));
    }
  }
  // A run that converges before the first cut is snapshotted once finished,
  // so every run that asks for round trips gets at least one.
  if (cut_every > 0 && max_cuts > 0 && run.trips.empty()) {
    run.trips.push_back(snapshot_round_trip(world, config, tracer, flip_first_snapshot));
  }
  run.step_s = static_cast<double>(step_ns) * 1e-9;
  run.metrics = world.finish();
  run.channel_attempts = world.protocol().channel().attempts();
  return run;
}

Counts deterministic_counts(const experiment::RunMetrics& metrics,
                            std::uint64_t channel_attempts,
                            const std::vector<RoundTrip>& trips) {
  const counting::ProtocolStats& p = metrics.protocol_stats;
  Counts c;
  c["traffic.steps"] = static_cast<double>(metrics.steps);
  c["traffic.events"] = static_cast<double>(metrics.sim_events);
  c["traffic.transits"] = static_cast<double>(metrics.transits);
  c["traffic.spawned"] = static_cast<double>(metrics.total_spawned);
  c["traffic.peak_occupied_lanes"] = static_cast<double>(metrics.peak_occupied_lanes);
  c["traffic.total_lanes"] = static_cast<double>(metrics.total_lanes);
  c["counting.count_events"] = static_cast<double>(p.count_events);
  c["counting.labels_issued"] = static_cast<double>(p.labels_issued);
  c["counting.label_handoff_failures"] = static_cast<double>(p.label_handoff_failures);
  c["counting.messages_sent"] = static_cast<double>(p.messages_sent);
  c["counting.messages_delivered"] = static_cast<double>(p.messages_delivered);
  c["v2x.channel.attempts"] = static_cast<double>(channel_attempts);
  c["v2x.channel.failures"] = static_cast<double>(metrics.channel_failures);
  c["counting.constitution_max_min"] = metrics.constitution_max_min;
  c["counting.collection_max_min"] = metrics.collection_max_min;
  double bytes = 0.0;
  double hash = 0.0;
  for (const RoundTrip& trip : trips) {
    bytes += static_cast<double>(trip.bytes);
    // 52 bits of the fingerprint fit a double exactly.
    hash += static_cast<double>(trip.hash >> 12);
  }
  c["serve.snapshot.total_bytes"] = bytes;
  c["serve.snapshot.fingerprint"] = hash;
  return c;
}

void merge_counts(Counts& into, const Counts& counts) {
  for (const auto& [key, value] : counts) {
    const bool is_max = key.ends_with("_max_min");
    auto [it, inserted] = into.emplace(key, value);
    if (!inserted) it->second = is_max ? std::max(it->second, value) : it->second + value;
  }
}

void cross_check(Report& report, const Counts& untraced, const Counts& traced) {
  for (const auto& [key, value] : untraced) {
    const auto it = traced.find(key);
    report.check(it != traced.end() && it->second == value,
                 "traced run differs from untraced run on " + key);
  }
}

void add_engine_layers(Report& report, const util::PerfCollector& perf, std::uint64_t steps,
                       std::uint64_t vehicle_steps, std::uint64_t events) {
  const auto per = [](double seconds, std::uint64_t n, double scale) {
    return n == 0 ? 0.0 : seconds * scale / static_cast<double>(n);
  };
  const auto phase_s = [&](util::PerfPhase phase) { return perf.phase(phase).seconds(); };
  using util::PerfPhase;
  report.add(Kind::Layer, "traffic.dynamics.ns_per_vehicle_step",
             per(phase_s(PerfPhase::Dynamics), vehicle_steps, 1e9), "ns");
  report.add(Kind::Layer, "traffic.lane_change.ns_per_step", per(phase_s(PerfPhase::LaneChange), steps, 1e9),
             "ns");
  report.add(Kind::Layer, "traffic.transits.ns_per_step", per(phase_s(PerfPhase::Transits), steps, 1e9),
             "ns");
  report.add(Kind::Layer, "traffic.overtakes.ns_per_step", per(phase_s(PerfPhase::Overtakes), steps, 1e9),
             "ns");
  report.add(Kind::Layer, "traffic.step_bookkeeping.ns_per_step",
             per(phase_s(PerfPhase::StepBookkeeping), steps, 1e9), "ns");
  report.add(Kind::Layer, "traffic.event_flush.ns_per_event", per(phase_s(PerfPhase::EventFlush), events, 1e9),
             "ns");
  report.add(Kind::Layer, "traffic.demand.ns_per_step", per(phase_s(PerfPhase::Demand), steps, 1e9), "ns");
}

void add_snapshot_layers(Report& report, const std::vector<RoundTrip>& trips) {
  std::vector<double> capture, encode, decode, apply;
  double bytes_per_vehicle = 0.0;
  for (const RoundTrip& trip : trips) {
    capture.push_back(trip.capture_ms);
    encode.push_back(trip.encode_ms);
    decode.push_back(trip.decode_ms);
    apply.push_back(trip.apply_ms);
  }
  report.add(Kind::Layer, "serve.snapshot.capture_ms", median(capture), "ms");
  report.add(Kind::Layer, "serve.snapshot.encode_ms", median(encode), "ms");
  report.add(Kind::Layer, "serve.snapshot.decode_ms", median(decode), "ms");
  report.add(Kind::Layer, "serve.snapshot.apply_ms", median(apply), "ms");
  const RoundTrip* last = trips.empty() ? nullptr : &trips.back();
  if (last != nullptr && last->vehicles > 0) {
    bytes_per_vehicle = static_cast<double>(last->bytes) / static_cast<double>(last->vehicles);
  }
  report.add(Kind::Layer, "serve.snapshot.bytes_per_vehicle", bytes_per_vehicle, "B");
  for (const char* name : {"engine", "demand", "protocol", "oracle", "world"}) {
    double size = 0.0;
    if (last != nullptr && last->section_bytes.count(name) > 0) {
      size = static_cast<double>(last->section_bytes.at(name));
    }
    report.add(Kind::Layer, std::string("serve.snapshot.") + name + ".bytes", size, "B");
  }
}

void add_count_layers(Report& report, const Counts& c) {
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  report.add(Kind::Layer, "traffic.steps", c.at("traffic.steps"), "count");
  report.add(Kind::Layer, "traffic.events", c.at("traffic.events"), "count");
  report.add(Kind::Layer, "traffic.transits", c.at("traffic.transits"), "count");
  report.add(Kind::Layer, "traffic.spawned", c.at("traffic.spawned"), "count");
  report.add(Kind::Layer, "traffic.peak_occupied_lane_ratio",
             ratio(c.at("traffic.peak_occupied_lanes"), c.at("traffic.total_lanes")), "ratio");
  report.add(Kind::Layer, "counting.count_events", c.at("counting.count_events"), "count");
  report.add(Kind::Layer, "counting.messages_sent", c.at("counting.messages_sent"), "count");
  report.add(Kind::Layer, "counting.message_delivery_ratio",
             ratio(c.at("counting.messages_delivered"), c.at("counting.messages_sent")), "ratio");
  // A run that issued no labels reports 0, so losing the work reads as worse.
  report.add(Kind::Layer, "counting.label_handoff_success_ratio",
             ratio(c.at("counting.labels_issued") - c.at("counting.label_handoff_failures"),
                   c.at("counting.labels_issued")),
             "ratio");
  report.add(Kind::Layer, "v2x.channel.attempts", c.at("v2x.channel.attempts"), "count");
  report.add(Kind::Layer, "v2x.channel.loss_ratio",
             ratio(c.at("v2x.channel.failures"), c.at("v2x.channel.attempts")), "ratio");
  report.add(Kind::Layer, "counting.constitution_max_min", c.at("counting.constitution_max_min"), "sim_min");
  report.add(Kind::Layer, "counting.collection_max_min", c.at("counting.collection_max_min"), "sim_min");
}

double map_build_ms(const experiment::ScenarioConfig& config, int repeats) {
  const int stride = config.mode == experiment::SystemMode::Open ? config.gateway_stride : 0;
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t t = util::steady_now_nanos();
    if (config.map_factory) {
      const roadnet::RoadNetwork net = config.map_factory(stride);
      ms.push_back(ms_since(t));
    } else {
      roadnet::ManhattanConfig map = config.map;
      map.gateway_stride = stride;
      const roadnet::RoadNetwork net = roadnet::make_manhattan_grid(map);
      ms.push_back(ms_since(t));
    }
  }
  return median(ms);
}

}  // namespace ivc::bench

// Snapshot container, the components' field lists and the checks restore
// runs on top of them.
//
// Everything that writes or reads component internals lives here, next to
// the one friend type (SnapshotAccess) the components grant access to.
// Each visit mirrors its component's data members exactly; a member added
// to a component without a matching line here will surface as a roundtrip
// divergence in the 120-seed snapshot bank, not as silent drift.

#include "serve/snapshot.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "counting/oracle.hpp"
#include "counting/patrol.hpp"
#include "counting/protocol.hpp"
#include "serve/world.hpp"
#include "traffic/demand.hpp"
#include "traffic/sim_engine.hpp"
#include "util/string_util.hpp"

namespace ivc::serve {

// ---- ByteWriter -------------------------------------------------------------

std::uint8_t* ByteWriter::extend(std::size_t n) {
  const std::size_t at = out_.size();
  out_.resize(at + n);
  return out_.data() + at;
}

// ---- Snapshot container -----------------------------------------------------

std::vector<std::uint8_t>& Snapshot::add_section(std::string_view name) {
  for (Section& s : sections_) {
    if (s.name == name) {
      s.payload.clear();
      return s.payload;
    }
  }
  sections_.push_back(Section{std::string(name), {}});
  return sections_.back().payload;
}

const std::vector<std::uint8_t>& Snapshot::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s.payload;
  }
  throw SnapshotError("snapshot has no section '" + std::string(name) + "'");
}

bool Snapshot::has_section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  std::size_t size = 4 * 4;  // magic, version, endian mark, section count
  for (const Section& s : sections_) size += 4 + s.name.size() + 4 + s.payload.size();
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.reserve(size);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(kEndianMark);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w.str(s.name);
    w.u32(static_cast<std::uint32_t>(s.payload.size()));
    w.bytes(s.payload.data(), s.payload.size());
  }
  return out;
}

Snapshot Snapshot::from_bytes(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) throw SnapshotError("not an IVC snapshot (bad magic)");
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw SnapshotError(util::format(
        "snapshot format version %u is not the supported version %u; "
        "re-record the snapshot with this build",
        version, kVersion));
  }
  const std::uint32_t endian = r.u32();
  if (endian != kEndianMark) throw SnapshotError("snapshot endian mark corrupt");
  const std::uint32_t count = r.u32();
  Snapshot snap;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    // add_section resets a section it already has: a repeated name would
    // let the later payload silently replace the earlier one.
    if (snap.has_section(name)) {
      throw SnapshotError("snapshot repeats section '" + name + "'");
    }
    const std::uint32_t len = r.u32();
    snap.add_section(name) = r.bytes(len);
  }
  r.expect_end("snapshot");
  return snap;
}

// ---- field lists -------------------------------------------------------------

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    throw SnapshotError(std::string("snapshot incompatible with this world: ") + what);
  }
}

// One slot of the engine's SoA store: its hot columns, then its cold record.
template <class Ar, class Store>
void visit_row(Ar& ar, Store& store, std::size_t i) {
  ar.field(store.position[i]);
  ar.field(store.prev_position[i]);
  ar.field(store.speed[i]);
  ar.field(store.length[i]);
  ar.field(store.desired_speed_factor[i]);
  ar.field(store.edge[i]);
  ar.field(store.lane[i]);
  ar.field(store.lane_change_cooldown[i]);
  ar.field(store.is_patrol[i]);
  auto& cold = store.cold[i];
  ar.field(cold.id);
  ar.enumeration(cold.attrs.color, traffic::Color::Yellow);
  ar.enumeration(cold.attrs.type, traffic::BodyType::PoliceCar);
  ar.enumeration(cold.attrs.brand, traffic::Brand::Fulcrum);
  ar.field(cold.alive);
  ar.sequence(cold.route.edges);
  ar.field(cold.route.next);
  ar.field(cold.route.cyclic);
  ar.field(cold.entry_seq);
  ar.field(cold.rng_key);
  ar.field(cold.rng_draws);
}

// The smallest row (an empty route): rows are store columns, not element
// objects, so this Sizer pass runs over a one-slot store.
std::size_t empty_row_bytes() {
  static const std::size_t bytes = [] {
    traffic::VehicleStore store;
    store.push_slot();
    Sizer sizer;
    visit_row(sizer, std::as_const(store), 0);
    return sizer.size();
  }();
  return bytes;
}

template <class C>
void save_section(Snapshot& snap, std::string_view name, const C& component) {
  Writer::write(snap.add_section(name),
                [&](auto& ar) { SnapshotAccess::visit(ar, component); });
}

// Flattened for the same reason as Writer::write.
template <class C>
[[gnu::flatten]] void restore_section(const Snapshot& snap, const char* name,
                                      const roadnet::RoadNetwork& net, C& component) {
  Reader reader(snap.section(name), net.num_intersections(), net.num_segments());
  SnapshotAccess::visit(reader, component);
  reader.expect_end(name);
}

// True when each edge of `route` the vehicle will still take leaves the
// node the one before it ends at, starting from `at`'s end: what the
// engine asserts at every stop line. A cyclic route is followed around
// once.
bool route_connects(const roadnet::RoadNetwork& net, roadnet::EdgeId at,
                    const traffic::Route& route) {
  const std::size_t n = route.edges.size();
  if (n == 0) return true;
  std::size_t k = route.cyclic ? route.next % n : route.next;
  const std::size_t links = route.cyclic ? n : n - std::min(k, n);
  roadnet::NodeId node = net.segment(at).to;
  for (std::size_t j = 0; j < links; ++j) {
    const roadnet::Segment& seg = net.segment(route.edges[k]);
    if (seg.from != node && !seg.is_inbound_gateway()) return false;
    node = seg.to;
    if (++k == n) k = 0;
  }
  return true;
}

}  // namespace

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, traffic::SimEngine> e) {
  // Structural-validation block: restore refuses a world built from
  // different inputs.
  ar.echo(e.config_.seed, "engine seed");
  ar.echo(e.config_.dt, "dt");
  ar.echo(e.config_.multi_admission, "admission model");
  ar.echo(e.config_.allow_lane_change, "lane-change model");
  ar.echo(e.config_.intersection_lookahead, "intersection lookahead");
  ar.echo(std::uint64_t{e.net_.num_intersections()}, "intersection count");
  ar.echo(std::uint64_t{e.net_.num_segments()}, "segment count");
  ar.echo(std::uint64_t{e.lanes_.size()}, "lane count");
  ar.echo(e.vehicle_stream_seed_, "vehicle stream seed");

  ar.field(e.now_);
  ar.field(e.step_count_);
  ar.field(e.total_transits_);
  ar.field(e.total_spawned_);
  ar.field(e.entry_seq_counter_);
  ar.field(e.events_emitted_);
  ar.field(e.population_inside_);
  ar.field(e.peak_occupied_lanes_);
  ar.field(e.rng_);

  std::size_t slots = e.store_.slot_count();
  ar.count(slots, empty_row_bytes());
  for (std::size_t i = 0; i < slots; ++i) {
    if constexpr (Ar::kLoading) e.store_.push_slot();
    visit_row(ar, e.store_, i);
  }
  ar.sequence(e.free_slots_);
  ar.sequence(e.alive_);
  ar.sequence(e.watched_);
  // Lane membership is serialized explicitly: in-lane order encodes
  // arrival history (position ties), which positions alone cannot rebuild.
  ar.echo(std::uint64_t{e.lanes_.size()}, "lane table size");
  for (auto& lane : e.lanes_) ar.sequence(lane);
}

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, traffic::DemandModel> d) {
  ar.echo(d.config_.seed, "demand seed");
  ar.echo(d.config_.volume_pct, "demand volume");
  ar.field(d.rng_);
  ar.field(d.arrival_budget_);
  ar.field(d.spawned_total_);
}

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, counting::CountingProtocol> p) {
  ar.echo(p.config_.seed, "protocol seed");
  ar.echo(p.config_.channel_loss, "channel loss");
  ar.echo(p.config_.open_system, "open-system flag");
  ar.echo(std::uint64_t{p.checkpoints_.size()}, "checkpoint count");
  ar.echo(std::uint64_t{p.outbox_.size()}, "outbox table size");
  ar.echo(std::uint64_t{p.marker_on_edge_.size()}, "marker table size");

  ar.field(p.started_);
  ar.sequence(p.seeds_);
  ar.field(p.rng_);

  ar.field(p.channel_.anonymous_attempts_);
  ar.field(p.channel_.attempts_);
  ar.field(p.channel_.failures_);

  auto& stats = p.stats_;
  ar.field(stats.count_events);
  ar.field(stats.labels_issued);
  ar.field(stats.label_handoff_failures);
  ar.field(stats.activations_by_label);
  ar.field(stats.markers_consumed);
  ar.field(stats.messages_sent);
  ar.field(stats.messages_delivered);
  ar.field(stats.message_pickup_failures);
  ar.field(stats.patrol_relays);
  ar.field(stats.overtake_events);
  ar.field(stats.interaction_entries);
  ar.field(stats.interaction_exits);

  ar.sequence(p.obus_.entries_, [](auto& ar, auto& entry) {
    ar.field(entry.generation_tag);
    auto& obu = entry.state;
    ar.field(obu.counted);
    ar.optional(obu.label);
    ar.field(obu.overtake_delta);
    ar.sequence(obu.cargo);
    ar.field(obu.channel_attempts);
  });
  for (auto& box : p.outbox_) {
    ar.sequence(box, [](auto& ar, auto& stamped) {
      ar.field(stamped.msg);
      ar.field(stamped.since);
    });
  }
  for (auto& marker : p.marker_on_edge_) ar.field(marker);

  for (auto& cp : p.checkpoints_) {
    ar.field(cp.seed_);
    ar.field(cp.active_);
    ar.field(cp.activation_time_);
    ar.field_or_invalid(cp.predecessor_edge_);
    ar.field_or_invalid(cp.parent_);
    ar.echo(std::uint64_t{cp.inbound_.size()}, "inbound direction count");
    for (auto& in : cp.inbound_) {
      ar.echo(in.edge, "inbound direction edge");
      ar.enumeration(in.state, counting::DirectionState::Excluded);
      ar.field(in.count);
      ar.field(in.start_time);
      ar.field(in.stop_time);
    }
    ar.echo(std::uint64_t{cp.outbound_.size()}, "outbound direction count");
    for (auto& out : cp.outbound_) {
      ar.echo(out.edge, "outbound direction edge");
      ar.field(out.needs_label);
      ar.enumeration(out.outcome, counting::LabelOutcome::NotChild);
      ar.field(out.failed_handoffs);
      ar.field(out.issue_time);
    }
    ar.field(cp.interaction_in_);
    ar.field(cp.interaction_out_);
    ar.field(cp.loss_adjust_);
    ar.field(cp.overtake_adjust_);
    ar.map(cp.child_reports_);
    ar.sequence(cp.children_);
    ar.field(cp.report_sent_);
    ar.field(cp.subtree_total_);
    ar.field(cp.report_time_);
  }
}

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, counting::Oracle> o) {
  ar.field(o.count_events_);
  ar.field(o.adjustment_sum_);
  ar.field(o.exit_events_);
  ar.map(o.counted_times_);
}

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, counting::PatrolFleet> fleet) {
  ar.sequence(fleet.vehicles_);
}

template <class Ar>
void SnapshotAccess::visit(Ar& ar, ArchiveRef<Ar, SimWorld> w) {
  ar.field(w.population_);
  ar.field(w.saw_all_active_);
  ar.field(w.time_all_active_min_);
  ar.field(w.converged_);
}

void SnapshotAccess::save(const SimWorld& w, Snapshot& snap) {
  w.engine_->save(snap);
  save_section(snap, "demand", *w.demand_);
  save_section(snap, "protocol", *w.protocol_);
  save_section(snap, "oracle", *w.oracle_);
  if (w.patrol_) save_section(snap, "patrol", *w.patrol_);
  save_section(snap, "world", w);
}

void SnapshotAccess::restore(SimWorld& w, const Snapshot& snap) {
  const roadnet::RoadNetwork& net = w.net_;
  const traffic::SimEngine& engine = *w.engine_;
  const traffic::VehicleStore& store = engine.store();
  w.engine_->restore(snap);
  restore_section(snap, "demand", net, *w.demand_);
  restore_section(snap, "protocol", net, *w.protocol_);
  restore_section(snap, "oracle", net, *w.oracle_);
  if (w.patrol_) {
    if (!snap.has_section("patrol")) {
      throw SnapshotError("world has a patrol fleet but the snapshot has none");
    }
    restore_section(snap, "patrol", net, *w.patrol_);
  } else if (snap.has_section("patrol")) {
    throw SnapshotError("snapshot has a patrol fleet but the world has none");
  }
  restore_section(snap, "world", net, w);

  // What the demand model, the protocol and the patrol fleet will look up
  // in the restored engine, checked here so that a corrupt snapshot is
  // rejected instead of aborting or hanging a later step.
  const auto live = [&](traffic::VehicleId id) {
    const auto veh = engine.find_vehicle(id);
    return veh.has_value() && veh->alive();
  };
  // Each step spends whole arrivals from the budget, so a save leaves it
  // in [0, 1); a huge one would never be spent down.
  const double budget = w.demand_->arrival_budget_;
  check(budget >= 0.0 && budget < 1.0, "demand arrival budget out of range");
  counting::CountingProtocol& p = *w.protocol_;
  for (const traffic::VehicleId id : p.marker_on_edge_) {
    check(!id.valid() || live(id), "marker not live");
  }
  if (w.patrol_) {
    for (const traffic::VehicleId id : w.patrol_->vehicles_) {
      check(!id.valid() || live(id), "patrol car not live");
    }
  }
  // Each message in flight resolves one Pending outbound direction of its
  // destination toward its sender, as consume() will (a child report
  // doubles as the ack), and records a report at most once.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> owed;
  std::set<std::pair<std::uint32_t, std::uint32_t>> reported;
  const auto in_flight = [&](const v2x::Message& msg) {
    const auto* report = std::get_if<v2x::CountReport>(&msg.payload);
    const roadnet::NodeId from = report ? report->from : std::get<v2x::TreeAck>(msg.payload).from;
    const std::pair<std::uint32_t, std::uint32_t> key{msg.destination.value(), from.value()};
    const counting::Checkpoint& cp = p.checkpoints_[key.first];
    const auto pending = std::count_if(
        cp.outbound_.begin(), cp.outbound_.end(), [&](const counting::OutboundDirection& out) {
          return out.neighbor == from && out.outcome == counting::LabelOutcome::Pending;
        });
    check(++owed[key] <= static_cast<std::size_t>(pending) &&
              (!report || (!cp.child_reports_.contains(key.second) && reported.insert(key).second)),
          "message in flight answers no pending marker");
  };
  const auto& entries = p.obus_.entries_;
  check(entries.size() <= store.slot_count(), "more OBU entries than vehicle slots");
  for (std::size_t slot = 0; slot < entries.size(); ++slot) {
    const auto& [tag, obu] = entries[slot];
    const traffic::VehicleId id = store.cold[slot].id;
    check(tag <= std::uint64_t{id.generation()} + 1, "OBU entry newer than its vehicle slot");
    if (!obu.label && obu.cargo.empty()) continue;
    // Markers and mail ride only with live vehicles on interior edges, and
    // a marker names its carrier's edge and that edge's checkpoint.
    const roadnet::Segment& seg = net.segment(store.edge[slot]);
    check(tag == std::uint64_t{id.generation()} + 1 && live(id) && !seg.is_gateway() &&
              (!obu.label || (obu.label->edge == seg.id && obu.label->issuer == seg.from)),
          "marker or mail on a vehicle that cannot deliver it");
    for (const v2x::Message& msg : obu.cargo) in_flight(msg);
  }
  for (const auto& box : p.outbox_) {
    for (const auto& stamped : box) in_flight(stamped.msg);
  }
  // Memoized pure function of the (identical) network; drop and re-derive.
  p.next_hop_cache_.clear();
  // Not serialized: recounted from the restored checkpoints, with every
  // checkpoint listed as changed so a service republishes them all.
  p.reset_aggregates();
}

}  // namespace ivc::serve

// ---- SimEngine --------------------------------------------------------------

namespace ivc::traffic {

using serve::SnapshotError;

void SimEngine::save(serve::Snapshot& snap) const {
  if (!events_.empty() || !pending_free_.empty() || !active_nodes_.empty()) {
    throw SnapshotError("SimEngine::save is only legal between steps");
  }
  serve::save_section(snap, "engine", *this);
}

void SimEngine::restore(const serve::Snapshot& snap) {
  if (!events_.empty() || !pending_free_.empty() || !active_nodes_.empty()) {
    throw SnapshotError("SimEngine::restore is only legal between steps");
  }
  store_ = VehicleStore{};
  serve::restore_section(snap, "engine", net_, *this);
  serve::check(store_.rows_consistent(), "vehicle store rows differ in length");

  // The id of each slot's live vehicle (invalid for a dead slot): every
  // vehicle id in the lists below is checked against this table, each at
  // most once per list, before anything indexes the store with it.
  const std::size_t slots = store_.slot_count();
  std::vector<VehicleId> live_ids(slots);
  std::size_t live_records = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    const VehicleCold& cold = store_.cold[i];
    serve::check(cold.id.slot() == i, "vehicle record id does not match its slot");
    if (!cold.alive) continue;
    live_ids[i] = cold.id;
    ++live_records;
    serve::check(serve::route_connects(net_, store_.edge[i], cold.route),
                 "route of a live vehicle does not connect");
    // Dynamics clamps each speed to [0, limit × factor].
    serve::check(store_.desired_speed_factor[i] > 0.0, "live vehicle's speed factor not positive");
  }
  const auto live = [&](VehicleId id) { return id.slot() < slots && live_ids[id.slot()] == id; };
  std::vector<std::uint8_t> seen(slots, 0);
  const auto first_sight = [&](std::uint32_t slot) { return std::exchange(seen[slot], 1) == 0; };

  for (const std::uint32_t slot : free_slots_) {
    serve::check(slot < slots && !live_ids[slot].valid() && first_sight(slot),
                 "free slot out of range, alive or listed twice");
  }
  pending_free_.clear();

  std::fill(seen.begin(), seen.end(), 0);
  for (const VehicleId id : alive_) {
    serve::check(live(id) && first_sight(id.slot()), "alive vehicle id not live or listed twice");
  }
  serve::check(alive_.size() == live_records, "alive index misses a live vehicle record");
  alive_pos_.assign(slots, 0);
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    alive_pos_[alive_[i].slot()] = static_cast<std::uint32_t>(i);
  }

  for (const VehicleId id : watched_) serve::check(live(id), "watched vehicle id not live");

  edge_count_.assign(edge_count_.size(), 0);
  occupied_lanes_.clear();
  std::fill(seen.begin(), seen.end(), 0);
  std::size_t in_lanes = 0;
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    const std::vector<VehicleId>& lane = lanes_[li];
    for (const VehicleId id : lane) {
      serve::check(live(id) && first_sight(id.slot()) &&
                       store_.edge[id.slot()] == lane_refs_[li].edge &&
                       store_.lane[id.slot()] == lane_refs_[li].lane,
                   "lane vehicle id not live, listed twice or on another lane");
    }
    in_lanes += lane.size();
    if (!lane.empty()) {
      occupied_lanes_.push_back(static_cast<std::uint32_t>(li));
      edge_count_[lane_refs_[li].edge.value()] += static_cast<std::uint32_t>(lane.size());
    }
  }
  peak_occupied_lanes_ = std::max(peak_occupied_lanes_, occupied_lanes_.size());
  for (auto& candidates : node_candidates_) candidates.clear();
  active_nodes_.clear();

  serve::check(in_lanes == alive_.size(), "lane table misses an alive vehicle");
  serve::check(debug_occupancy_consistent(), "restored lane occupancy is inconsistent");
}

}  // namespace ivc::traffic

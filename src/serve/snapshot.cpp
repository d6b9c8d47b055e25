// Snapshot container + field-by-field component serializers.
//
// Everything that writes or reads component internals lives here, next to
// the one friend type (SnapshotAccess) the components grant access to.
// Each serializer mirrors its component's data members exactly; a member
// added to a component without a matching line here will surface as a
// roundtrip divergence in the 120-seed snapshot bank, not as silent drift.

#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "counting/oracle.hpp"
#include "counting/patrol.hpp"
#include "counting/protocol.hpp"
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

// ---- shared field codecs ----------------------------------------------------

namespace {

template <class W>
void write_rng(W& w, const util::Rng& rng) {
  const util::Rng::State st = rng.state();
  for (const std::uint64_t word : st.s) w.u64(word);
  w.f64(st.spare_normal);
  w.boolean(st.has_spare_normal);
}

void read_rng(ByteReader& r, util::Rng& rng) {
  util::Rng::State st;
  for (std::uint64_t& word : st.s) word = r.u64();
  st.spare_normal = r.f64();
  st.has_spare_normal = r.boolean();
  rng.set_state(st);
}

template <class W> void write_time(W& w, util::SimTime t) { w.i64(t.millis()); }
util::SimTime read_time(ByteReader& r) { return util::SimTime::from_millis(r.i64()); }

template <class W> void write_vid(W& w, traffic::VehicleId id) { w.u64(id.value()); }
traffic::VehicleId read_vid(ByteReader& r) {
  const std::uint64_t v = r.u64();
  return traffic::VehicleId{static_cast<std::uint32_t>(v & 0xffffffffULL),
                            static_cast<std::uint32_t>(v >> 32)};
}

template <class W> void write_edge(W& w, roadnet::EdgeId e) { w.u32(e.value()); }
roadnet::EdgeId read_edge(ByteReader& r) { return roadnet::EdgeId{r.u32()}; }
template <class W> void write_node(W& w, roadnet::NodeId n) { w.u32(n.value()); }
roadnet::NodeId read_node(ByteReader& r) { return roadnet::NodeId{r.u32()}; }

template <class W>
void write_label(W& w, const v2x::Label& label) {
  write_node(w, label.issuer);
  write_edge(w, label.edge);
  write_time(w, label.issued_at);
}

v2x::Label read_label(ByteReader& r) {
  v2x::Label label;
  label.issuer = read_node(r);
  label.edge = read_edge(r);
  label.issued_at = read_time(r);
  return label;
}

template <class W>
void write_message(W& w, const v2x::Message& msg) {
  write_node(w, msg.source);
  write_node(w, msg.destination);
  w.u8(static_cast<std::uint8_t>(msg.payload.index()));
  if (const auto* ack = std::get_if<v2x::TreeAck>(&msg.payload)) {
    write_node(w, ack->from);
    w.boolean(ack->is_child);
  } else {
    const auto& report = std::get<v2x::CountReport>(msg.payload);
    write_node(w, report.from);
    w.i64(report.subtree_total);
  }
  write_time(w, msg.created_at);
  w.i32(msg.hops);
}

v2x::Message read_message(ByteReader& r) {
  v2x::Message msg;
  msg.source = read_node(r);
  msg.destination = read_node(r);
  const std::uint8_t kind = r.u8();
  if (kind == 0) {
    v2x::TreeAck ack;
    ack.from = read_node(r);
    ack.is_child = r.boolean();
    msg.payload = ack;
  } else if (kind == 1) {
    v2x::CountReport report;
    report.from = read_node(r);
    report.subtree_total = r.i64();
    msg.payload = report;
  } else {
    throw SnapshotError("unknown message payload kind in snapshot");
  }
  msg.created_at = read_time(r);
  msg.hops = r.i32();
  return msg;
}

// Encoded sizes. Restore passes the smallest encoding of one element
// behind each count prefix to ByteReader::count, which rejects a count
// whose elements cannot fit in the bytes left before anything is reserved
// or looped on. Save adds the same sizes up to size each record exactly.
constexpr std::size_t kVidBytes = 8;
constexpr std::size_t kNodeBytes = 4;
constexpr std::size_t kEdgeBytes = 4;
constexpr std::size_t kTimeBytes = 8;
// Rng state: four words, the spare normal and its flag.
constexpr std::size_t kRngBytes = 4 * 8 + 8 + 1;
// Engine section up to the slot rows: config echoes (seed, dt, two model
// flags, lookahead, intersection/segment/lane counts, stream seed), the
// clock, seven counters, the rng and the slot count.
constexpr std::size_t kEngineHeaderBytes =
    (8 + 8 + 1 + 1 + 8 + 8 + 8 + 8 + 8) + kTimeBytes + 7 * 8 + kRngBytes + 8;
// Engine slot: 5 f64, edge, lane, cooldown, patrol byte, id, 3 attribute
// bytes, alive, route length, route cursor, cyclic, entry_seq, rng key and
// draws — with an empty route.
constexpr std::size_t kSlotBytes = 5 * 8 + 4 + 4 + 4 + 1 + 8 + 3 + 1 + 8 + 8 + 1 + 8 + 8 + 8;
// Message: source, destination, kind byte, the smaller payload (tree ack:
// node + bool), created_at, hops.
constexpr std::size_t kMessageBytes = 4 + 4 + 1 + (4 + 1) + 8 + 4;
// A count report's payload (node + i64) is longer than a tree ack's.
constexpr std::size_t kReportExtraBytes = (4 + 8) - (4 + 1);
// OBU entry: generation tag, counted, label flag (no label), overtake
// delta, cargo count (empty cargo), channel attempts.
constexpr std::size_t kObuBytes = 8 + 1 + 1 + 4 + 8 + 8;
// Label: issuer, edge, issue time.
constexpr std::size_t kLabelBytes = 4 + 4 + kTimeBytes;
// Protocol section up to the OBU entries, without the seed list: config
// echoes (seed, loss, open flag, checkpoint/outbox/marker table sizes),
// started, seed count, the rng, three channel counters, twelve stats and
// the OBU count.
constexpr std::size_t kProtocolHeaderBytes =
    (8 + 8 + 1 + 8 + 8 + 8) + 1 + 8 + kRngBytes + 3 * 8 + 12 * 8 + 8;
// Checkpoint with no directions, child reports or children: seed and
// active flags, activation time, predecessor edge, parent, the two
// direction counts, four adjustment ledgers, the report and child counts,
// report_sent, subtree total and report time.
constexpr std::size_t kCheckpointBytes =
    1 + 1 + kTimeBytes + 4 + 4 + 8 + 8 + 4 * 8 + 8 + 8 + 1 + 8 + kTimeBytes;
// Inbound direction: edge, state, count, start and stop times.
constexpr std::size_t kInboundBytes = 4 + 1 + 8 + 2 * kTimeBytes;
// Outbound direction: edge, needs_label, outcome, failed handoffs, issue time.
constexpr std::size_t kOutboundBytes = 4 + 1 + 1 + 4 + kTimeBytes;
// Child report: child node and its subtree total.
constexpr std::size_t kChildReportBytes = 4 + 8;
// Oracle tally entry: vehicle id and times counted.
constexpr std::size_t kTallyEntryBytes = 8 + 2;

std::size_t message_bytes(const v2x::Message& msg) {
  return kMessageBytes +
         (std::holds_alternative<v2x::TreeAck>(msg.payload) ? 0 : kReportExtraBytes);
}

std::size_t obu_bytes(const v2x::ObuState& obu) {
  std::size_t n = kObuBytes + (obu.label.has_value() ? kLabelBytes : 0);
  for (const v2x::Message& msg : obu.cargo) n += message_bytes(msg);
  return n;
}

void check(bool ok, const char* what) {
  if (!ok) {
    throw SnapshotError(std::string("snapshot incompatible with this world: ") + what);
  }
}

}  // namespace

}  // namespace ivc::serve

// ---- SimEngine --------------------------------------------------------------

namespace ivc::traffic {

using serve::ByteReader;
using serve::ByteWriter;
using serve::Snapshot;
using serve::SnapshotError;
// Pull in the unnamed-namespace codec helpers (write_time, read_vid, ...):
// they are injected into ivc::serve but not visible from here by default.
using namespace serve;  // NOLINT(google-build-using-namespace)

void SimEngine::save(serve::Snapshot& snap) const {
  if (!events_.empty() || !pending_free_.empty() || !active_nodes_.empty()) {
    throw SnapshotError("SimEngine::save is only legal between steps");
  }
  // The section's exact size, so its buffer grows once; each part below
  // is one record whose size the writer checks.
  const std::size_t slots = store_.slot_count();
  const auto row_bytes = [&](std::size_t i) {
    return serve::kSlotBytes + serve::kEdgeBytes * store_.cold[i].route.edges.size();
  };
  const std::size_t list_bytes = 3 * sizeof(std::uint64_t) +
                                 sizeof(std::uint32_t) * free_slots_.size() +
                                 serve::kVidBytes * (alive_.size() + watched_.size());
  std::size_t lane_bytes = sizeof(std::uint64_t) * (1 + lanes_.size());
  for (const std::vector<VehicleId>& lane : lanes_) lane_bytes += serve::kVidBytes * lane.size();
  std::size_t size = serve::kEngineHeaderBytes + list_bytes + lane_bytes;
  for (std::size_t i = 0; i < slots; ++i) size += row_bytes(i);

  ByteWriter w(snap.add_section("engine"));
  w.reserve(size);
  {
    ByteWriter::Record rec = w.record(serve::kEngineHeaderBytes);
    // Structural-validation block: restore refuses a world built from
    // different inputs. Thread count is deliberately absent — it must not
    // be state.
    rec.u64(config_.seed);
    rec.f64(config_.dt);
    rec.boolean(config_.multi_admission);
    rec.boolean(config_.allow_lane_change);
    rec.f64(config_.intersection_lookahead);
    rec.u64(net_.num_intersections());
    rec.u64(net_.num_segments());
    rec.u64(lanes_.size());
    rec.u64(vehicle_stream_seed_);

    // Clock and counters.
    serve::write_time(rec, now_);
    rec.u64(step_count_);
    rec.u64(total_transits_);
    rec.u64(total_spawned_);
    rec.u64(entry_seq_counter_);
    rec.u64(events_emitted_);
    rec.u64(population_inside_);
    rec.u64(peak_occupied_lanes_);
    serve::write_rng(rec, rng_);
    rec.u64(slots);
  }

  // Vehicle store, hot row + cold record per slot.
  for (std::size_t i = 0; i < slots; ++i) {
    ByteWriter::Record rec = w.record(row_bytes(i));
    rec.f64(store_.position[i]);
    rec.f64(store_.prev_position[i]);
    rec.f64(store_.speed[i]);
    rec.f64(store_.length[i]);
    rec.f64(store_.desired_speed_factor[i]);
    serve::write_edge(rec, store_.edge[i]);
    rec.i32(store_.lane[i]);
    rec.i32(store_.lane_change_cooldown[i]);
    rec.u8(store_.is_patrol[i]);
    const VehicleCold& cold = store_.cold[i];
    serve::write_vid(rec, cold.id);
    rec.u8(static_cast<std::uint8_t>(cold.attrs.color));
    rec.u8(static_cast<std::uint8_t>(cold.attrs.type));
    rec.u8(static_cast<std::uint8_t>(cold.attrs.brand));
    rec.boolean(cold.alive);
    rec.u64(cold.route.edges.size());
    for (const roadnet::EdgeId e : cold.route.edges) serve::write_edge(rec, e);
    rec.u64(cold.route.next);
    rec.boolean(cold.route.cyclic);
    rec.u64(cold.entry_seq);
    rec.u64(cold.rng_key);
    rec.u64(cold.rng_draws);
  }

  {
    ByteWriter::Record rec = w.record(list_bytes);
    rec.u64(free_slots_.size());
    for (const std::uint32_t s : free_slots_) rec.u32(s);
    rec.u64(alive_.size());
    for (const VehicleId id : alive_) serve::write_vid(rec, id);
    rec.u64(watched_.size());
    for (const VehicleId id : watched_) serve::write_vid(rec, id);
  }

  // Lane membership is serialized explicitly: in-lane order encodes
  // arrival history (position ties), which positions alone cannot rebuild.
  ByteWriter::Record rec = w.record(lane_bytes);
  rec.u64(lanes_.size());
  for (const std::vector<VehicleId>& lane : lanes_) {
    rec.u64(lane.size());
    for (const VehicleId id : lane) serve::write_vid(rec, id);
  }
}

void SimEngine::restore(const serve::Snapshot& snap) {
  if (!events_.empty() || !pending_free_.empty() || !active_nodes_.empty()) {
    throw SnapshotError("SimEngine::restore is only legal between steps");
  }
  ByteReader r(snap.section("engine"));

  serve::check(r.u64() == config_.seed, "engine seed differs");
  serve::check(r.f64() == config_.dt, "dt differs");
  serve::check(r.boolean() == config_.multi_admission, "admission model differs");
  serve::check(r.boolean() == config_.allow_lane_change, "lane-change model differs");
  serve::check(r.f64() == config_.intersection_lookahead, "intersection lookahead differs");
  serve::check(r.u64() == net_.num_intersections(), "intersection count differs");
  serve::check(r.u64() == net_.num_segments(), "segment count differs");
  serve::check(r.u64() == lanes_.size(), "lane count differs");
  serve::check(r.u64() == vehicle_stream_seed_, "vehicle stream seed differs");

  now_ = serve::read_time(r);
  step_count_ = r.u64();
  total_transits_ = r.u64();
  total_spawned_ = r.u64();
  entry_seq_counter_ = r.u64();
  events_emitted_ = r.u64();
  population_inside_ = r.u64();
  peak_occupied_lanes_ = r.u64();
  serve::read_rng(r, rng_);

  const std::size_t slots = r.count(serve::kSlotBytes);
  store_ = VehicleStore{};
  // The id of each slot's live vehicle (invalid for a dead slot): every
  // vehicle id decoded below is checked against this table, each at most
  // once per list, before anything indexes the store with it.
  std::vector<VehicleId> live_ids(slots);
  std::size_t live_records = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    const std::uint32_t slot = store_.push_slot();
    IVC_ASSERT(slot == i);
    store_.position[i] = r.f64();
    store_.prev_position[i] = r.f64();
    store_.speed[i] = r.f64();
    store_.length[i] = r.f64();
    store_.desired_speed_factor[i] = r.f64();
    store_.edge[i] = serve::read_edge(r);
    store_.lane[i] = r.i32();
    store_.lane_change_cooldown[i] = r.i32();
    store_.is_patrol[i] = r.u8();
    VehicleCold& cold = store_.cold[i];
    cold.id = serve::read_vid(r);
    cold.attrs.color = static_cast<Color>(r.u8());
    cold.attrs.type = static_cast<BodyType>(r.u8());
    cold.attrs.brand = static_cast<Brand>(r.u8());
    cold.alive = r.boolean();
    const std::size_t route_len = r.count(serve::kEdgeBytes);
    cold.route.edges.clear();
    cold.route.edges.reserve(route_len);
    for (std::size_t e = 0; e < route_len; ++e) cold.route.edges.push_back(serve::read_edge(r));
    cold.route.next = r.u64();
    cold.route.cyclic = r.boolean();
    cold.entry_seq = r.u64();
    cold.rng_key = r.u64();
    cold.rng_draws = r.u64();
    serve::check(cold.id.slot() == i, "vehicle record id does not match its slot");
    if (cold.alive) {
      live_ids[i] = cold.id;
      ++live_records;
    }
  }
  serve::check(store_.rows_consistent(), "vehicle store rows differ in length");

  const auto live = [&](VehicleId id) { return id.slot() < slots && live_ids[id.slot()] == id; };
  std::vector<std::uint8_t> seen(slots, 0);
  const auto first_sight = [&](std::uint32_t slot) { return std::exchange(seen[slot], 1) == 0; };

  free_slots_.clear();
  const std::size_t free_count = r.count(sizeof(std::uint32_t));
  free_slots_.reserve(free_count);
  for (std::size_t i = 0; i < free_count; ++i) {
    const std::uint32_t slot = r.u32();
    serve::check(slot < slots && !live_ids[slot].valid() && first_sight(slot),
                 "free slot out of range, alive or listed twice");
    free_slots_.push_back(slot);
  }
  pending_free_.clear();

  alive_.clear();
  const std::size_t alive_count = r.count(serve::kVidBytes);
  alive_.reserve(alive_count);
  std::fill(seen.begin(), seen.end(), 0);
  for (std::size_t i = 0; i < alive_count; ++i) {
    const VehicleId id = serve::read_vid(r);
    serve::check(live(id) && first_sight(id.slot()), "alive vehicle id not live or listed twice");
    alive_.push_back(id);
  }
  serve::check(alive_.size() == live_records, "alive index misses a live vehicle record");
  alive_pos_.assign(slots, 0);
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    alive_pos_[alive_[i].slot()] = static_cast<std::uint32_t>(i);
  }

  watched_.clear();
  const std::size_t watched_count = r.count(serve::kVidBytes);
  watched_.reserve(watched_count);
  for (std::size_t i = 0; i < watched_count; ++i) {
    const VehicleId id = serve::read_vid(r);
    serve::check(live(id), "watched vehicle id not live");
    watched_.push_back(id);
  }

  const std::size_t lane_count = r.count(sizeof(std::uint64_t));
  serve::check(lane_count == lanes_.size(), "lane table size differs");
  edge_count_.assign(edge_count_.size(), 0);
  occupied_lanes_.clear();
  std::fill(seen.begin(), seen.end(), 0);
  std::size_t in_lanes = 0;
  for (std::size_t li = 0; li < lane_count; ++li) {
    std::vector<VehicleId>& lane = lanes_[li];
    lane.clear();
    const std::size_t n = r.count(serve::kVidBytes);
    lane.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      const VehicleId id = serve::read_vid(r);
      serve::check(live(id) && first_sight(id.slot()) &&
                       store_.edge[id.slot()] == lane_refs_[li].edge &&
                       store_.lane[id.slot()] == lane_refs_[li].lane,
                   "lane vehicle id not live, listed twice or on another lane");
      lane.push_back(id);
    }
    in_lanes += n;
    if (!lane.empty()) {
      occupied_lanes_.push_back(static_cast<std::uint32_t>(li));
      edge_count_[lane_refs_[li].edge.value()] += static_cast<std::uint32_t>(lane.size());
    }
  }
  peak_occupied_lanes_ = std::max(peak_occupied_lanes_, occupied_lanes_.size());
  for (auto& candidates : node_candidates_) candidates.clear();
  active_nodes_.clear();

  serve::check(in_lanes == alive_.size(), "lane table misses an alive vehicle");

  r.expect_end("engine");
  serve::check(debug_occupancy_consistent(), "restored lane occupancy is inconsistent");
}

}  // namespace ivc::traffic

// ---- components (SnapshotAccess) --------------------------------------------

namespace ivc::serve {

void SnapshotAccess::save(const traffic::DemandModel& demand, Snapshot& snap) {
  ByteWriter w(snap.add_section("demand"));
  w.u64(demand.config_.seed);
  w.f64(demand.config_.volume_pct);
  write_rng(w, demand.rng_);
  w.f64(demand.arrival_budget_);
  w.u64(demand.spawned_total_);
}

void SnapshotAccess::restore(traffic::DemandModel& demand, const Snapshot& snap) {
  ByteReader r(snap.section("demand"));
  check(r.u64() == demand.config_.seed, "demand seed differs");
  check(r.f64() == demand.config_.volume_pct, "demand volume differs");
  read_rng(r, demand.rng_);
  demand.arrival_budget_ = r.f64();
  demand.spawned_total_ = r.u64();
  r.expect_end("demand");
}

void SnapshotAccess::save(const counting::CountingProtocol& p, Snapshot& snap) {
  // The section's exact size, so its buffer grows once; each part below
  // is one record whose size the writer checks.
  const std::size_t head_bytes = kProtocolHeaderBytes + kNodeBytes * p.seeds_.size();
  const auto box_bytes = [](const auto& box) {
    std::size_t n = 8 + kTimeBytes * box.size();
    for (const auto& stamped : box) n += message_bytes(stamped.msg);
    return n;
  };
  const auto checkpoint_bytes = [](const counting::Checkpoint& cp) {
    return kCheckpointBytes + kInboundBytes * cp.inbound_.size() +
           kOutboundBytes * cp.outbound_.size() + kChildReportBytes * cp.child_reports_.size() +
           kNodeBytes * cp.children_.size();
  };
  std::size_t size = head_bytes + kVidBytes * p.marker_on_edge_.size();
  for (const auto& entry : p.obus_.entries_) size += obu_bytes(entry.state);
  for (const auto& box : p.outbox_) size += box_bytes(box);
  for (const counting::Checkpoint& cp : p.checkpoints_) size += checkpoint_bytes(cp);

  ByteWriter w(snap.add_section("protocol"));
  w.reserve(size);
  {
    ByteWriter::Record rec = w.record(head_bytes);
    rec.u64(p.config_.seed);
    rec.f64(p.config_.channel_loss);
    rec.boolean(p.config_.open_system);
    rec.u64(p.checkpoints_.size());
    rec.u64(p.outbox_.size());
    rec.u64(p.marker_on_edge_.size());

    rec.boolean(p.started_);
    rec.u64(p.seeds_.size());
    for (const roadnet::NodeId n : p.seeds_) write_node(rec, n);
    write_rng(rec, p.rng_);

    rec.u64(p.channel_.anonymous_attempts_);
    rec.u64(p.channel_.attempts_);
    rec.u64(p.channel_.failures_);

    const auto& stats = p.stats_;
    rec.u64(stats.count_events);
    rec.u64(stats.labels_issued);
    rec.u64(stats.label_handoff_failures);
    rec.u64(stats.activations_by_label);
    rec.u64(stats.markers_consumed);
    rec.u64(stats.messages_sent);
    rec.u64(stats.messages_delivered);
    rec.u64(stats.message_pickup_failures);
    rec.u64(stats.patrol_relays);
    rec.u64(stats.overtake_events);
    rec.u64(stats.interaction_entries);
    rec.u64(stats.interaction_exits);

    rec.u64(p.obus_.entries_.size());
  }

  for (const auto& entry : p.obus_.entries_) {
    const v2x::ObuState& obu = entry.state;
    ByteWriter::Record rec = w.record(obu_bytes(obu));
    rec.u64(entry.generation_tag);
    rec.boolean(obu.counted);
    rec.boolean(obu.label.has_value());
    if (obu.label.has_value()) write_label(rec, *obu.label);
    rec.i32(obu.overtake_delta);
    rec.u64(obu.cargo.size());
    for (const v2x::Message& msg : obu.cargo) write_message(rec, msg);
    rec.u64(obu.channel_attempts);
  }

  for (const auto& box : p.outbox_) {
    ByteWriter::Record rec = w.record(box_bytes(box));
    rec.u64(box.size());
    for (const auto& stamped : box) {
      write_message(rec, stamped.msg);
      write_time(rec, stamped.since);
    }
  }

  {
    ByteWriter::Record rec = w.record(kVidBytes * p.marker_on_edge_.size());
    for (const traffic::VehicleId marker : p.marker_on_edge_) write_vid(rec, marker);
  }

  for (const counting::Checkpoint& cp : p.checkpoints_) {
    ByteWriter::Record rec = w.record(checkpoint_bytes(cp));
    rec.boolean(cp.seed_);
    rec.boolean(cp.active_);
    write_time(rec, cp.activation_time_);
    write_edge(rec, cp.predecessor_edge_);
    write_node(rec, cp.parent_);
    rec.u64(cp.inbound_.size());
    for (const counting::InboundDirection& in : cp.inbound_) {
      write_edge(rec, in.edge);
      rec.u8(static_cast<std::uint8_t>(in.state));
      rec.i64(in.count);
      write_time(rec, in.start_time);
      write_time(rec, in.stop_time);
    }
    rec.u64(cp.outbound_.size());
    for (const counting::OutboundDirection& out : cp.outbound_) {
      write_edge(rec, out.edge);
      rec.boolean(out.needs_label);
      rec.u8(static_cast<std::uint8_t>(out.outcome));
      rec.i32(out.failed_handoffs);
      write_time(rec, out.issue_time);
    }
    rec.i64(cp.interaction_in_);
    rec.i64(cp.interaction_out_);
    rec.i64(cp.loss_adjust_);
    rec.i64(cp.overtake_adjust_);
    rec.u64(cp.child_reports_.size());
    for (const auto& [child, total] : cp.child_reports_) {
      rec.u32(child);
      rec.i64(total);
    }
    rec.u64(cp.children_.size());
    for (const roadnet::NodeId child : cp.children_) write_node(rec, child);
    rec.boolean(cp.report_sent_);
    rec.i64(cp.subtree_total_);
    write_time(rec, cp.report_time_);
  }
}

void SnapshotAccess::restore(counting::CountingProtocol& p, const Snapshot& snap) {
  ByteReader r(snap.section("protocol"));

  check(r.u64() == p.config_.seed, "protocol seed differs");
  check(r.f64() == p.config_.channel_loss, "channel loss differs");
  check(r.boolean() == p.config_.open_system, "open-system flag differs");
  check(r.u64() == p.checkpoints_.size(), "checkpoint count differs");
  check(r.u64() == p.outbox_.size(), "outbox table size differs");
  check(r.u64() == p.marker_on_edge_.size(), "marker table size differs");

  p.started_ = r.boolean();
  p.seeds_.clear();
  const std::size_t seed_count = r.count(kNodeBytes);
  p.seeds_.reserve(seed_count);
  for (std::size_t i = 0; i < seed_count; ++i) p.seeds_.push_back(read_node(r));
  read_rng(r, p.rng_);

  p.channel_.anonymous_attempts_ = r.u64();
  p.channel_.attempts_ = r.u64();
  p.channel_.failures_ = r.u64();

  auto& stats = p.stats_;
  stats.count_events = r.u64();
  stats.labels_issued = r.u64();
  stats.label_handoff_failures = r.u64();
  stats.activations_by_label = r.u64();
  stats.markers_consumed = r.u64();
  stats.messages_sent = r.u64();
  stats.messages_delivered = r.u64();
  stats.message_pickup_failures = r.u64();
  stats.patrol_relays = r.u64();
  stats.overtake_events = r.u64();
  stats.interaction_entries = r.u64();
  stats.interaction_exits = r.u64();

  const std::size_t obu_count = r.count(kObuBytes);
  p.obus_.entries_.assign(obu_count, {});
  for (auto& entry : p.obus_.entries_) {
    entry.generation_tag = r.u64();
    v2x::ObuState& obu = entry.state;
    obu.counted = r.boolean();
    if (r.boolean()) {
      obu.label = read_label(r);
    } else {
      obu.label.reset();
    }
    obu.overtake_delta = r.i32();
    const std::size_t cargo_count = r.count(kMessageBytes);
    obu.cargo.clear();
    obu.cargo.reserve(cargo_count);
    for (std::size_t c = 0; c < cargo_count; ++c) obu.cargo.push_back(read_message(r));
    obu.channel_attempts = r.u64();
  }

  for (auto& box : p.outbox_) {
    box.clear();
    const std::size_t n = r.count(kMessageBytes + kTimeBytes);
    for (std::size_t i = 0; i < n; ++i) {
      counting::CountingProtocol::StampedMessage stamped{read_message(r), {}};
      stamped.since = read_time(r);
      box.push_back(std::move(stamped));
    }
  }

  for (traffic::VehicleId& marker : p.marker_on_edge_) marker = read_vid(r);

  for (counting::Checkpoint& cp : p.checkpoints_) {
    cp.seed_ = r.boolean();
    cp.active_ = r.boolean();
    cp.activation_time_ = read_time(r);
    cp.predecessor_edge_ = read_edge(r);
    cp.parent_ = read_node(r);
    check(r.u64() == cp.inbound_.size(), "inbound direction count differs");
    for (counting::InboundDirection& in : cp.inbound_) {
      check(read_edge(r) == in.edge, "inbound direction edge differs");
      in.state = static_cast<counting::DirectionState>(r.u8());
      in.count = r.i64();
      in.start_time = read_time(r);
      in.stop_time = read_time(r);
    }
    check(r.u64() == cp.outbound_.size(), "outbound direction count differs");
    for (counting::OutboundDirection& out : cp.outbound_) {
      check(read_edge(r) == out.edge, "outbound direction edge differs");
      out.needs_label = r.boolean();
      out.outcome = static_cast<counting::LabelOutcome>(r.u8());
      out.failed_handoffs = r.i32();
      out.issue_time = read_time(r);
    }
    cp.interaction_in_ = r.i64();
    cp.interaction_out_ = r.i64();
    cp.loss_adjust_ = r.i64();
    cp.overtake_adjust_ = r.i64();
    cp.child_reports_.clear();
    const std::size_t report_count = r.count(kChildReportBytes);
    for (std::size_t i = 0; i < report_count; ++i) {
      const std::uint32_t child = r.u32();
      cp.child_reports_[child] = r.i64();
    }
    cp.children_.clear();
    const std::size_t child_count = r.count(kNodeBytes);
    cp.children_.reserve(child_count);
    for (std::size_t i = 0; i < child_count; ++i) cp.children_.push_back(read_node(r));
    cp.report_sent_ = r.boolean();
    cp.subtree_total_ = r.i64();
    cp.report_time_ = read_time(r);
  }

  // Memoized pure function of the (identical) network; drop and re-derive.
  p.next_hop_cache_.clear();

  r.expect_end("protocol");
  // Not serialized: recounted from the restored checkpoints, with every
  // checkpoint listed as changed so a service republishes them all.
  p.reset_aggregates();
}

void SnapshotAccess::save(const counting::Oracle& oracle, Snapshot& snap) {
  ByteWriter w(snap.add_section("oracle"));
  ByteWriter::Record rec =
      w.record(8 + 8 + 8 + 8 + kTallyEntryBytes * oracle.counted_times_.size());
  rec.u64(oracle.count_events_);
  rec.i64(oracle.adjustment_sum_);
  rec.u64(oracle.exit_events_);
  // The tally is ordered by id, which is the canonical serialized order.
  rec.u64(oracle.counted_times_.size());
  for (const auto& [id, times] : oracle.counted_times_) {
    rec.u64(id);
    rec.u16(times);
  }
}

void SnapshotAccess::restore(counting::Oracle& oracle, const Snapshot& snap) {
  ByteReader r(snap.section("oracle"));
  oracle.count_events_ = r.u64();
  oracle.adjustment_sum_ = r.i64();
  oracle.exit_events_ = r.u64();
  auto& tally = oracle.counted_times_;
  tally.clear();
  const std::size_t n = r.count(kTallyEntryBytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = r.u64();
    // Save writes ids strictly increasing; anything else is corrupt (a
    // repeated id would silently overwrite the earlier entry).
    if (!tally.empty() && tally.rbegin()->first >= id) {
      throw SnapshotError("oracle tally ids are not strictly increasing");
    }
    tally.emplace_hint(tally.end(), id, r.u16());
  }
  r.expect_end("oracle");
}

void SnapshotAccess::save(const counting::PatrolFleet& fleet, Snapshot& snap) {
  ByteWriter w(snap.add_section("patrol"));
  w.u64(fleet.vehicles_.size());
  for (const traffic::VehicleId id : fleet.vehicles_) write_vid(w, id);
}

void SnapshotAccess::restore(counting::PatrolFleet& fleet, const Snapshot& snap) {
  ByteReader r(snap.section("patrol"));
  fleet.vehicles_.clear();
  const std::size_t n = r.count(kVidBytes);
  fleet.vehicles_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) fleet.vehicles_.push_back(read_vid(r));
  r.expect_end("patrol");
}

}  // namespace ivc::serve

#include "counting/protocol.hpp"

#include <algorithm>
#include <queue>
#include <variant>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace ivc::counting {

using roadnet::EdgeId;
using roadnet::NodeId;

CountingProtocol::CountingProtocol(traffic::SimEngine& engine, ProtocolConfig config)
    : engine_(engine),
      config_(config),
      recognizer_(config.target),
      channel_(config.channel_loss, config.seed),
      rng_(util::derive_seed(config.seed, "protocol")) {
  const auto& net = engine_.network();
  // Open-system accounting is mandatory when gateways exist: a closed-mode
  // protocol on an open network would silently leak counts.
  if (net.is_open_system()) config_.open_system = true;
  checkpoints_.reserve(net.num_intersections());
  for (const auto& node : net.intersections()) {
    checkpoints_.emplace_back(net, node.id, config_.open_system);
  }
  outbox_.resize(net.num_intersections());
  marker_on_edge_.assign(net.num_segments(), traffic::VehicleId::invalid());
  changed_.reserve(checkpoints_.size());
  changed_flag_.assign(checkpoints_.size(), 0);
  engine_.add_observer(this);
}

void CountingProtocol::designate_seeds(std::vector<NodeId> seeds) {
  IVC_ASSERT_MSG(!started_, "seeds must be designated before start()");
  IVC_ASSERT(!seeds.empty());
  seeds_ = std::move(seeds);
}

std::vector<NodeId> CountingProtocol::choose_random_seeds(std::size_t count) {
  const std::size_t n = engine_.network().num_intersections();
  IVC_ASSERT(count >= 1 && count <= n);
  std::vector<NodeId> all;
  all.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) all.push_back(NodeId{i});
  rng_.shuffle(all.begin(), all.end());
  all.resize(count);
  return all;
}

void CountingProtocol::start() {
  IVC_ASSERT_MSG(!seeds_.empty(), "designate seeds first");
  IVC_ASSERT(!started_);
  started_ = true;
  const util::SimTime now = engine_.now();
  for (const NodeId seed : seeds_) {
    Checkpoint& cp = checkpoints_[seed.value()];
    cp.activate_as_seed(now);
    note_activated(cp);
  }
}

const Checkpoint& CountingProtocol::checkpoint(NodeId node) const {
  IVC_ASSERT(node.valid() && node.value() < checkpoints_.size());
  return checkpoints_[node.value()];
}

void CountingProtocol::clear_changed() {
  for (const NodeId node : changed_) changed_flag_[node.value()] = 0;
  changed_.clear();
}

CountingProtocol::Aggregates CountingProtocol::scan_aggregates() const {
  Aggregates sum;
  for (const auto& cp : checkpoints_) {
    sum.live_total += cp.local_total();
    if (cp.is_active()) ++sum.active;
    if (cp.is_stable()) ++sum.stable;
  }
  sum.markers_in_flight = obus_.labels_in_flight();
  return sum;
}

bool CountingProtocol::debug_aggregates_consistent() const {
  if (scan_aggregates() != aggregates_) return false;
  std::vector<std::uint8_t> listed(checkpoints_.size(), 0);
  for (const NodeId node : changed_) {
    if (changed_flag_[node.value()] == 0 || listed[node.value()] != 0) return false;
    listed[node.value()] = 1;
  }
  return listed == changed_flag_;
}

void CountingProtocol::reset_aggregates() {
  aggregates_ = scan_aggregates();
  changed_.clear();
  for (const auto& cp : checkpoints_) changed_.push_back(cp.node());
  changed_flag_.assign(checkpoints_.size(), 1);
}

void CountingProtocol::mark_changed(const Checkpoint& cp) {
  std::uint8_t& flag = changed_flag_[cp.node().value()];
  if (flag != 0) return;
  flag = 1;
  changed_.push_back(cp.node());
}

void CountingProtocol::add_to_total(const Checkpoint& cp, std::int64_t delta) {
  aggregates_.live_total += delta;
  mark_changed(cp);
}

void CountingProtocol::note_activated(const Checkpoint& cp) {
  ++aggregates_.active;
  // Activation starts every direction but the predecessor's, so only a
  // checkpoint with no other inbound direction is stable at once.
  if (cp.is_stable()) ++aggregates_.stable;
  mark_changed(cp);
}

bool CountingProtocol::collection_complete() const {
  if (!config_.collection) return false;
  return std::all_of(seeds_.begin(), seeds_.end(), [this](NodeId seed) {
    return checkpoints_[seed.value()].report_sent();
  });
}

std::int64_t CountingProtocol::collected_total() const {
  IVC_ASSERT_MSG(collection_complete(), "collection has not converged");
  std::int64_t total = 0;
  for (const NodeId seed : seeds_) total += checkpoints_[seed.value()].subtree_total();
  return total;
}

std::size_t CountingProtocol::outbox_backlog() const {
  std::size_t n = 0;
  for (const auto& box : outbox_) n += box.size();
  return n;
}

std::string CountingProtocol::debug_collection_state() const {
  std::size_t unreported = 0;
  std::size_t unstable = 0;
  std::size_t pending_out = 0;
  std::size_t unissued_out = 0;
  std::size_t missing_child_reports = 0;
  // The first stuck checkpoint in node order, with the reason it cannot
  // report — aggregates say *that* collection stalled, this says *where*.
  std::string stuck;
  for (const auto& cp : checkpoints_) {
    if (!cp.is_stable()) ++unstable;
    if (!cp.report_sent()) ++unreported;
    std::size_t cp_pending = 0;
    std::size_t cp_unissued = 0;
    for (const auto& out : cp.outbound()) {
      if (out.outcome == LabelOutcome::Pending) ++cp_pending;
      if (out.outcome == LabelOutcome::NotIssued) ++cp_unissued;
    }
    pending_out += cp_pending;
    unissued_out += cp_unissued;
    std::size_t cp_missing = 0;
    roadnet::NodeId first_missing_child = roadnet::NodeId::invalid();
    for (const auto child : cp.children()) {
      if (!cp.child_reports().contains(child.value())) {
        if (++cp_missing == 1) first_missing_child = child;
      }
    }
    missing_child_reports += cp_missing;
    if (stuck.empty() && !cp.report_sent()) {
      std::string why;
      if (!cp.is_stable()) {
        why = "still counting";
      } else if (cp_pending + cp_unissued > 0) {
        why = util::format("markers unresolved (%zu pending, %zu unissued)", cp_pending,
                           cp_unissued);
      } else if (cp_missing > 0) {
        why = util::format("waiting on %zu child report(s), first from node %u", cp_missing,
                           first_missing_child.value());
      } else {
        why = "ready but report unsent";
      }
      stuck = util::format(" stuck_cp=%u(%s)", cp.node().value(), why.c_str());
    }
  }
  // Outbox backlog by message class, plus the oldest stranded message —
  // which class is stuck and between which checkpoints.
  std::size_t stuck_acks = 0;
  std::size_t stuck_reports = 0;
  const StampedMessage* oldest = nullptr;
  for (const auto& box : outbox_) {
    for (const auto& stamped : box) {
      if (std::holds_alternative<v2x::TreeAck>(stamped.msg.payload)) {
        ++stuck_acks;
      } else {
        ++stuck_reports;
      }
      if (oldest == nullptr || stamped.since < oldest->since) oldest = &stamped;
    }
  }
  std::string s = "unreported=" + std::to_string(unreported) +
                  " unstable=" + std::to_string(unstable) +
                  " out_pending=" + std::to_string(pending_out) +
                  " out_unissued=" + std::to_string(unissued_out) +
                  " missing_child_reports=" + std::to_string(missing_child_reports) +
                  " outbox=" + std::to_string(outbox_backlog()) +
                  " outbox_tree_ack=" + std::to_string(stuck_acks) +
                  " outbox_report=" + std::to_string(stuck_reports) +
                  " cargo=" + std::to_string(obus_.cargo_in_flight()) +
                  " labels_in_flight=" + std::to_string(obus_.labels_in_flight()) + stuck;
  if (oldest != nullptr) {
    s += util::format(
        " oldest_msg=%s %u->%u since=%.1fmin",
        std::holds_alternative<v2x::TreeAck>(oldest->msg.payload) ? "tree_ack" : "report",
        oldest->msg.source.value(), oldest->msg.destination.value(),
        oldest->since.minutes());
  }
  return s;
}

const std::vector<std::uint16_t>& CountingProtocol::hops_to(NodeId dest) {
  auto it = next_hop_cache_.find(dest.value());
  if (it == next_hop_cache_.end()) {
    // Reverse BFS from `dest` over interior edges.
    const auto& net = engine_.network();
    constexpr std::uint16_t kUnset = 0xffff;
    std::vector<std::uint16_t> dist(net.num_intersections(), kUnset);
    std::queue<NodeId> queue;
    queue.push(dest);
    dist[dest.value()] = 0;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (const EdgeId e : net.intersection(u).in_edges) {
        const NodeId v = net.segment(e).from;
        if (dist[v.value()] != kUnset) continue;
        dist[v.value()] = static_cast<std::uint16_t>(dist[u.value()] + 1);
        queue.push(v);
      }
    }
    it = next_hop_cache_.emplace(dest.value(), std::move(dist)).first;
  }
  return it->second;
}

bool CountingProtocol::carries_toward(NodeId from, NodeId via, NodeId dest) {
  const auto& dist = hops_to(dest);
  return dist[via.value()] < dist[from.value()];
}

void CountingProtocol::send_message(NodeId source, NodeId dest, v2x::Payload payload,
                                    util::SimTime now) {
  IVC_ASSERT(dest.valid() && dest != source);
  v2x::Message msg;
  msg.source = source;
  msg.destination = dest;
  msg.payload = std::move(payload);
  msg.created_at = now;
  outbox_[source.value()].push_back({std::move(msg), now});
  ++stats_.messages_sent;
}

void CountingProtocol::consume(Checkpoint& cp, const v2x::Message& msg, util::SimTime now) {
  ++stats_.messages_delivered;
  if (const auto* ack = std::get_if<v2x::TreeAck>(&msg.payload)) {
    cp.resolve_label(ack->from, ack->is_child);
  } else if (const auto* report = std::get_if<v2x::CountReport>(&msg.payload)) {
    // A subtree report implies "your marker activated me" — it resolves the
    // outbound direction as a child and delivers the subtree total at once.
    cp.resolve_label(report->from, /*is_child=*/true);
    cp.record_child_report(report->from, report->subtree_total);
  } else {
    IVC_UNREACHABLE("unhandled payload");
  }
  maybe_send_report(cp, now);
}

void CountingProtocol::consume_or_forward(v2x::Message msg, NodeId here, util::SimTime now) {
  if (msg.destination == here) {
    consume(checkpoints_[here.value()], msg, now);
  } else {
    ++msg.hops;
    outbox_[here.value()].push_back({std::move(msg), now});
  }
}

void CountingProtocol::maybe_send_report(Checkpoint& cp, util::SimTime now) {
  if (!config_.collection || !cp.ready_to_report()) return;
  std::int64_t total = cp.local_total();
  for (const auto& [child, subtree] : cp.child_reports()) total += subtree;
  cp.mark_report_sent(total, now);
  if (!cp.is_seed()) {
    send_message(cp.node(), cp.parent(), v2x::CountReport{cp.node(), total}, now);
  }
}

// Overtake accounting (Alg. 3 lines 5-8), arrival-order formulation.
//
// The paper's cooperative V2V detection only needs to *confirm* an overtake
// before the marker reaches the next checkpoint, so the protocol can settle
// the tally from final arrival order instead of tracking every mid-edge
// order flip (which re-passes would have to cancel):
//   * a countable vehicle that entered the edge after the marker but
//     arrives first has (net) overtaken the marker -> -1: it was counted
//     upstream and will be seen again while the direction still counts;
//   * at the marker's own arrival, every countable vehicle still on the
//     edge that entered before the marker has (net) been overtaken -> +1:
//     it will arrive after the stop and would otherwise be missed. It is
//     marked counted so open-system exit accounting stays consistent.
// Both settle at intersections, where the paper's exchanges happen anyway.

void CountingProtocol::on_overtake(const traffic::OvertakeEvent& /*event*/) {
  // Mid-edge order flips are informational only (see note above); the
  // tally settles from arrival order in on_transit.
}

void CountingProtocol::on_despawn(const traffic::DespawnEvent& event) {
  if (!started_) return;
  const v2x::ObuState* obu = obus_.find(event.vehicle);
  if (obu == nullptr) return;
  // Markers are only issued on interior edges and consumed at their far
  // intersection, and cargo is deposited at every transit — a despawning
  // vehicle (end of an outbound gateway) can hold neither.
  IVC_ASSERT_MSG(!obu->has_label(), "marker lost to a despawn");
  IVC_ASSERT_MSG(obu->cargo.empty(), "cargo lost to a despawn");
}

void CountingProtocol::on_transit(const traffic::TransitEvent& event) {
  if (!started_) return;
  const auto& net = engine_.network();
  Checkpoint& cp = checkpoints_[event.node.value()];
  const traffic::VehicleRef veh = engine_.vehicle(event.vehicle);
  v2x::ObuState& obu = obus_.get(event.vehicle);
  const util::SimTime now = event.time;
  const bool is_patrol = veh.is_patrol();
  const bool matches = recognizer_.matches(veh.attrs());
  const auto& from_seg = net.segment(event.from_edge);
  const auto& to_seg = net.segment(event.to_edge);

  // (A) Deposit carried messages. Ordinary vehicles drop everything here
  // (this node was the planned next hop); patrol cars deliver only mail
  // addressed to this checkpoint and keep ferrying the rest.
  if (!obu.cargo.empty()) {
    if (is_patrol) {
      auto it = obu.cargo.begin();
      while (it != obu.cargo.end()) {
        if (it->destination == event.node) {
          consume(cp, *it, now);
          ++stats_.patrol_relays;
          it = obu.cargo.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      std::vector<v2x::Message> dropped;
      dropped.swap(obu.cargo);
      for (auto& msg : dropped) consume_or_forward(std::move(msg), event.node, now);
    }
  }

  // (B0) Overtake accounting, minus side: this vehicle entered the edge
  // after its marker but is arriving first — it finally overtook the
  // marker (Alg. 3 line 8 generalized; see comment at on_overtake).
  const bool had_label = obu.has_label();
  if (config_.overtake_adjustment && !had_label && !is_patrol && matches &&
      !from_seg.is_gateway()) {
    const traffic::VehicleId marker_id = marker_on_edge_[event.from_edge.value()];
    if (marker_id.valid()) {
      const traffic::VehicleRef marker_veh = engine_.vehicle(marker_id);
      if (event.from_entry_seq > marker_veh.entry_seq()) {
        obus_.get(marker_id).overtake_delta -= 1;
        ++stats_.overtake_events;
      }
    }
  }

  // (B) Marker arrival (Alg. 1 phases 3 & 4). The arrival direction is the
  // marked direction; the issuer is structurally the upstream neighbor.
  if (had_label) {
    IVC_ASSERT_MSG(!from_seg.is_gateway(), "markers travel interior edges only");
    IVC_ASSERT(obu.label->edge == event.from_edge);
    const NodeId issuer = obu.label->issuer;
    if (!cp.is_active()) {
      cp.activate_from_label(event.from_edge, now);
      note_activated(cp);
      ++stats_.activations_by_label;
      // No explicit "child" ack: the subtree report this checkpoint will
      // eventually send to its predecessor doubles as the ack (Alg. 2
      // sends exactly one upward message per checkpoint).
    } else {
      const bool was_stable = cp.is_stable();
      cp.marker_arrived(event.from_edge, now);
      if (!was_stable && cp.is_stable()) {
        ++aggregates_.stable;
        mark_changed(cp);
      }
      if (config_.collection) {
        send_message(event.node, issuer, v2x::TreeAck{event.node, false}, now);
      }
    }
    if (config_.overtake_adjustment) {
      // Minus side accumulated while in flight (vehicles that finally
      // overtook this marker).
      if (obu.overtake_delta != 0) {
        cp.apply_adjustment(obu.overtake_delta, AdjustReason::MarkerOvertaken);
        add_to_total(cp, obu.overtake_delta);
        if (oracle_ != nullptr) oracle_->on_adjustment(event.node, obu.overtake_delta);
      }
      // Plus side: countable vehicles still on the marked edge that entered
      // before the marker — the marker finally overtook them. They arrive
      // after the stop, so they are accounted here and flagged counted.
      std::int64_t plus = 0;
      const auto& seg = net.segment(event.from_edge);
      for (int lane = 0; lane < seg.lanes; ++lane) {
        for (const traffic::VehicleId yid : engine_.lane_vehicles(event.from_edge, lane)) {
          const traffic::VehicleRef y = engine_.vehicle(yid);
          if (y.entry_seq() >= event.from_entry_seq) continue;
          if (y.is_patrol() || !recognizer_.matches(y.attrs())) continue;
          obus_.get(yid).counted = true;
          ++plus;
          ++stats_.overtake_events;
        }
      }
      if (plus != 0) {
        cp.apply_adjustment(plus, AdjustReason::OvertakeByMarker);
        add_to_total(cp, plus);
        if (oracle_ != nullptr) oracle_->on_adjustment(event.node, plus);
      }
    }
    marker_on_edge_[event.from_edge.value()] = traffic::VehicleId::invalid();
    obu.label.reset();
    --aggregates_.markers_in_flight;
    obu.overtake_delta = 0;
    ++stats_.markers_consumed;
    maybe_send_report(cp, now);
  }

  // (C) Phase-5 counting. Unlabeled countable vehicles only; marker
  // carriers were counted upstream by construction. Interaction inbound
  // (open system) counts continuously once the border checkpoint is active.
  if (!had_label && !is_patrol && matches && cp.is_active()) {
    if (from_seg.is_inbound_gateway()) {
      if (cp.is_border()) {
        cp.interaction_entered();
        add_to_total(cp, 1);
        obu.counted = true;
        ++stats_.interaction_entries;
        ++stats_.count_events;
        if (oracle_ != nullptr) oracle_->on_counted(event.vehicle, event.node, now);
      }
    } else {
      const InboundDirection* dir = cp.find_inbound(event.from_edge);
      IVC_ASSERT(dir != nullptr);
      if (dir->state == DirectionState::Counting) {
        cp.count_vehicle(event.from_edge);
        add_to_total(cp, 1);
        obu.counted = true;
        ++stats_.count_events;
        if (oracle_ != nullptr) oracle_->on_counted(event.vehicle, event.node, now);
      }
    }
  }

  // (D) Interaction exit (Alg. 5): a counted vehicle leaving the region
  // takes itself out of the total.
  if (!is_patrol && cp.is_active() && cp.is_border() && to_seg.is_outbound_gateway() &&
      obu.counted) {
    cp.interaction_exited();
    add_to_total(cp, -1);
    ++stats_.interaction_exits;
    if (oracle_ != nullptr) oracle_->on_interaction_exit(event.vehicle, event.node);
  }

  // (E) Marker handoff to the departing vehicle (Alg. 1 phase 2; lossy per
  // Alg. 3 with a -1 compensation and retry-until-ack). Patrol equipment is
  // reliable.
  if (cp.is_active() && !to_seg.is_gateway() && !obu.has_label()) {
    OutboundDirection* out = cp.find_outbound(event.to_edge);
    IVC_ASSERT(out != nullptr);
    if (out->needs_label) {
      // Patrol equipment bypasses the lossy channel entirely (no exchange
      // is drawn); every ordinary pickup goes through the channel so its
      // attempt statistics hold on lossless runs too.
      const bool ok = is_patrol || channel_.pickup_succeeds(event.vehicle.value(),
                                                            obu.channel_attempts++);
      if (ok) {
        obu.label = v2x::Label{event.node, event.to_edge, now};
        obu.overtake_delta = 0;
        marker_on_edge_[event.to_edge.value()] = event.vehicle;
        ++aggregates_.markers_in_flight;
        cp.record_label_issued(event.to_edge, now);
        ++stats_.labels_issued;
      } else {
        cp.record_label_failure(event.to_edge);
        ++stats_.label_handoff_failures;
        // The escaped vehicle is a counted, unlabeled vehicle: it will be
        // double-counted exactly once downstream, so compensate here —
        // but only if it is countable under the target spec.
        if (matches) {
          cp.apply_adjustment(-1, AdjustReason::LossCompensation);
          add_to_total(cp, -1);
          if (oracle_ != nullptr) oracle_->on_adjustment(event.node, -1);
        }
      }
    }
  }

  // (F) Message pickup. Ordinary vehicles take mail routed through their
  // next intersection (single lossy exchange covers the bundle); patrol
  // cars sweep mail that has been stranded longer than the patrol pickup
  // age (the Alg. 4 circuitous-route fallback).
  auto& box = outbox_[event.node.value()];
  if (!box.empty()) {
    if (is_patrol) {
      auto it = box.begin();
      while (it != box.end()) {
        if ((now - it->since).seconds() >= config_.patrol_pickup_age) {
          obu.cargo.push_back(std::move(it->msg));
          it = box.erase(it);
        } else {
          ++it;
        }
      }
    } else if (!to_seg.is_gateway()) {
      const NodeId via = to_seg.to;
      const auto eligible = [&](const StampedMessage& stamped) {
        return carries_toward(event.node, via, stamped.msg.destination) ||
               (now - stamped.since).seconds() >= config_.stale_forward_age;
      };
      bool any_eligible = false;
      for (const auto& stamped : box) {
        if (eligible(stamped)) {
          any_eligible = true;
          break;
        }
      }
      if (any_eligible) {
        const bool ok = channel_.pickup_succeeds(event.vehicle.value(),
                                                 obu.channel_attempts++);
        if (ok) {
          auto it = box.begin();
          while (it != box.end()) {
            if (eligible(*it)) {
              obu.cargo.push_back(std::move(it->msg));
              it = box.erase(it);
            } else {
              ++it;
            }
          }
        } else {
          ++stats_.message_pickup_failures;
        }
      }
    }
  }
}

}  // namespace ivc::counting

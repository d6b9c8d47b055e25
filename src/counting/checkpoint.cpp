#include "counting/checkpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ivc::counting {

Checkpoint::Checkpoint(const roadnet::RoadNetwork& net, roadnet::NodeId node,
                       bool open_system)
    : node_(node) {
  const auto& info = net.intersection(node);
  inbound_.reserve(info.in_edges.size());
  for (const roadnet::EdgeId e : info.in_edges) {
    inbound_.push_back({e, net.segment(e).from, DirectionState::Idle, 0,
                        util::SimTime::never(), util::SimTime::never()});
  }
  outbound_.reserve(info.out_edges.size());
  for (const roadnet::EdgeId e : info.out_edges) {
    OutboundDirection out;
    out.edge = e;
    out.neighbor = net.segment(e).to;
    outbound_.push_back(out);
  }
  has_interaction_ = open_system && info.is_border();
}

InboundDirection* Checkpoint::find_inbound(roadnet::EdgeId edge) {
  for (auto& dir : inbound_) {
    if (dir.edge == edge) return &dir;
  }
  return nullptr;
}

const InboundDirection* Checkpoint::find_inbound(roadnet::EdgeId edge) const {
  for (const auto& dir : inbound_) {
    if (dir.edge == edge) return &dir;
  }
  return nullptr;
}

OutboundDirection* Checkpoint::find_outbound(roadnet::EdgeId edge) {
  for (auto& dir : outbound_) {
    if (dir.edge == edge) return &dir;
  }
  return nullptr;
}

void Checkpoint::start_counting_all_except(roadnet::EdgeId excluded, util::SimTime now) {
  for (auto& dir : inbound_) {
    if (dir.edge == excluded) {
      dir.state = DirectionState::Excluded;
      continue;
    }
    dir.state = DirectionState::Counting;
    dir.start_time = now;
  }
  // Phase 2: a marker must go out on *every* outbound direction, as a
  // Chandy–Lamport snapshot sends one on every outgoing channel. That
  // includes the direction back toward the predecessor: only this
  // checkpoint can issue the marker that stops the predecessor's inbound
  // direction from here, so without it the predecessor would never
  // stabilize (Checkpoint.LabelActivationExcludesPredecessor).
  for (auto& out : outbound_) {
    out.needs_label = true;
    out.outcome = LabelOutcome::NotIssued;
  }
}

void Checkpoint::activate_as_seed(util::SimTime now) {
  IVC_ASSERT_MSG(!active_, "checkpoint activated twice");
  seed_ = true;
  active_ = true;
  activation_time_ = now;
  start_counting_all_except(roadnet::EdgeId::invalid(), now);
}

void Checkpoint::activate_from_label(roadnet::EdgeId predecessor_edge, util::SimTime now) {
  IVC_ASSERT_MSG(!active_, "checkpoint activated twice");
  active_ = true;
  activation_time_ = now;
  predecessor_edge_ = predecessor_edge;
  const InboundDirection* pred = find_inbound(predecessor_edge);
  IVC_ASSERT_MSG(pred != nullptr, "predecessor edge must be an inbound direction");
  parent_ = pred->neighbor;
  start_counting_all_except(predecessor_edge, now);
}

void Checkpoint::marker_arrived(roadnet::EdgeId edge, util::SimTime now) {
  IVC_ASSERT(active_);
  InboundDirection* dir = find_inbound(edge);
  IVC_ASSERT_MSG(dir != nullptr, "marker arrived via unknown direction");
  if (dir->state == DirectionState::Counting) {
    dir->state = DirectionState::Stopped;
    dir->stop_time = now;
  }
  // Stopped/Excluded: redundant marker (e.g. multi-seed wave meeting the
  // predecessor direction) — nothing to stop.
}

void Checkpoint::count_vehicle(roadnet::EdgeId edge) {
  InboundDirection* dir = find_inbound(edge);
  IVC_ASSERT(dir != nullptr && dir->state == DirectionState::Counting);
  ++dir->count;
}

void Checkpoint::apply_adjustment(std::int64_t delta, AdjustReason reason) {
  if (reason == AdjustReason::LossCompensation) {
    loss_adjust_ += delta;
  } else {
    overtake_adjust_ += delta;
  }
}

void Checkpoint::interaction_entered() {
  IVC_ASSERT(has_interaction_ && active_);
  ++interaction_in_;
}

void Checkpoint::interaction_exited() {
  IVC_ASSERT(has_interaction_ && active_);
  ++interaction_out_;
}

void Checkpoint::record_label_issued(roadnet::EdgeId edge, util::SimTime now) {
  OutboundDirection* out = find_outbound(edge);
  IVC_ASSERT(out != nullptr && out->needs_label);
  out->needs_label = false;
  out->outcome = LabelOutcome::Pending;
  out->issue_time = now;
}

void Checkpoint::record_label_failure(roadnet::EdgeId edge) {
  OutboundDirection* out = find_outbound(edge);
  IVC_ASSERT(out != nullptr && out->needs_label);
  ++out->failed_handoffs;
}

void Checkpoint::resolve_label(roadnet::NodeId neighbor, bool is_child) {
  for (auto& out : outbound_) {
    if (out.neighbor == neighbor && out.outcome == LabelOutcome::Pending) {
      out.outcome = is_child ? LabelOutcome::Child : LabelOutcome::NotChild;
      if (is_child) children_.push_back(neighbor);
      return;
    }
  }
  IVC_UNREACHABLE("TreeAck for a label we did not issue");
}

void Checkpoint::record_child_report(roadnet::NodeId child, std::int64_t subtree_total) {
  IVC_ASSERT_MSG(!child_reports_.contains(child.value()), "duplicate child report");
  child_reports_[child.value()] = subtree_total;
}

bool Checkpoint::is_stable() const {
  if (!active_) return false;
  return std::none_of(inbound_.begin(), inbound_.end(), [](const InboundDirection& d) {
    return d.state == DirectionState::Counting;
  });
}

util::SimTime Checkpoint::stable_time() const {
  if (!is_stable()) return util::SimTime::never();
  util::SimTime latest = activation_time_;
  for (const auto& dir : inbound_) {
    if (dir.state == DirectionState::Stopped && dir.stop_time > latest) {
      latest = dir.stop_time;
    }
  }
  return latest;
}

bool Checkpoint::ready_to_report() const {
  if (!is_stable() || report_sent_) return false;
  for (const auto& out : outbound_) {
    if (out.outcome != LabelOutcome::Child && out.outcome != LabelOutcome::NotChild) {
      return false;
    }
  }
  for (const roadnet::NodeId child : children_) {
    if (!child_reports_.contains(child.value())) return false;
  }
  return true;
}

void Checkpoint::mark_report_sent(std::int64_t subtree_total, util::SimTime now) {
  IVC_ASSERT(!report_sent_);
  report_sent_ = true;
  subtree_total_ = subtree_total;
  report_time_ = now;
}

std::int64_t Checkpoint::local_total() const {
  std::int64_t total = loss_adjust_ + overtake_adjust_ + interaction_in_ - interaction_out_;
  for (const auto& dir : inbound_) total += dir.count;
  return total;
}

int Checkpoint::total_label_failures() const {
  int n = 0;
  for (const auto& out : outbound_) n += out.failed_handoffs;
  return n;
}

std::vector<roadnet::NodeId> Checkpoint::children() const { return children_; }

}  // namespace ivc::counting

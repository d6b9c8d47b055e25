#include "roadnet/builder.hpp"

#include <utility>

#include "roadnet/graph.hpp"
#include "util/assert.hpp"

namespace ivc::roadnet {

NodeId NetworkBuilder::add_intersection(geom::Vec2 position, IntersectionKind kind,
                                        std::string name) {
  IVC_ASSERT_MSG(!built_, "builder already consumed");
  Intersection node;
  node.id = NodeId{static_cast<std::uint32_t>(net_.intersections_.size())};
  node.position = position;
  node.kind = kind;
  node.name = std::move(name);
  net_.intersections_.push_back(std::move(node));
  return net_.intersections_.back().id;
}

EdgeId NetworkBuilder::add_segment(NodeId from, NodeId to, int lanes, double speed,
                                   double length) {
  IVC_ASSERT_MSG(!built_, "builder already consumed");
  IVC_ASSERT(lanes >= 1);
  IVC_ASSERT(speed > 0.0);
  Segment seg;
  seg.id = EdgeId{static_cast<std::uint32_t>(net_.segments_.size())};
  seg.from = from;
  seg.to = to;
  seg.lanes = lanes;
  seg.speed_limit = speed;

  const geom::Vec2 a = from.valid() ? net_.intersections_[from.value()].position
                                    : net_.intersections_[to.value()].position -
                                          geom::Vec2{length > 0 ? length : 150.0, 0.0};
  const geom::Vec2 b = to.valid() ? net_.intersections_[to.value()].position
                                  : net_.intersections_[from.value()].position +
                                        geom::Vec2{length > 0 ? length : 150.0, 0.0};
  seg.length = length > 0.0 ? length : geom::distance(a, b);
  IVC_ASSERT_MSG(seg.length > 1.0, "segments shorter than a vehicle are not supported");

  // Adjacency lists hold interior edges only; gateways are tracked in the
  // intersections' gateway_in / gateway_out lists by the caller.
  if (from.valid() && to.valid()) {
    net_.intersections_[from.value()].out_edges.push_back(seg.id);
    net_.intersections_[to.value()].in_edges.push_back(seg.id);
  }
  net_.segments_.push_back(std::move(seg));
  return net_.segments_.back().id;
}

EdgeId NetworkBuilder::add_one_way(NodeId u, NodeId v, const RoadSpec& spec, double length) {
  IVC_ASSERT(u.valid() && v.valid() && u != v);
  return add_segment(u, v, spec.lanes, spec.speed_limit, length);
}

EdgeId NetworkBuilder::add_two_way(NodeId u, NodeId v, const RoadSpec& spec, double length) {
  const EdgeId fwd = add_one_way(u, v, spec, length);
  RoadSpec back = spec;
  if (spec.reverse_lanes > 0) back.lanes = spec.reverse_lanes;
  const EdgeId rev = add_one_way(v, u, back, length);
  net_.segments_[fwd.value()].reverse = rev;
  net_.segments_[rev.value()].reverse = fwd;
  return fwd;
}

EdgeId NetworkBuilder::add_inbound_gateway(NodeId node, const RoadSpec& spec, double length) {
  IVC_ASSERT(node.valid());
  const EdgeId e = add_segment(NodeId::invalid(), node, spec.lanes, spec.speed_limit, length);
  net_.intersections_[node.value()].gateway_in.push_back(e);
  return e;
}

EdgeId NetworkBuilder::add_outbound_gateway(NodeId node, const RoadSpec& spec, double length) {
  IVC_ASSERT(node.valid());
  const EdgeId e = add_segment(node, NodeId::invalid(), spec.lanes, spec.speed_limit, length);
  net_.intersections_[node.value()].gateway_out.push_back(e);
  return e;
}

RoadNetwork NetworkBuilder::build(bool require_strong_connectivity) {
  IVC_ASSERT_MSG(!built_, "builder already consumed");
  built_ = true;

  // Structural validation.
  for (const auto& seg : net_.segments_) {
    IVC_ASSERT(seg.length > 0.0);
    IVC_ASSERT(seg.lanes >= 1);
    IVC_ASSERT(seg.speed_limit > 0.0);
    if (seg.reverse.valid()) {
      const auto& rev = net_.segments_[seg.reverse.value()];
      IVC_ASSERT_MSG(rev.reverse == seg.id && rev.from == seg.to && rev.to == seg.from,
                     "reverse edge pairing is inconsistent");
    }
    IVC_ASSERT_MSG(seg.from.valid() || seg.to.valid(), "segment with no endpoints");
  }
  for (const auto& node : net_.intersections_) {
    for (const EdgeId e : node.in_edges) IVC_ASSERT(net_.segments_[e.value()].to == node.id);
    for (const EdgeId e : node.out_edges) IVC_ASSERT(net_.segments_[e.value()].from == node.id);
    // Every intersection must be leavable, or vehicles would accumulate.
    IVC_ASSERT_MSG(!node.out_edges.empty() || !node.gateway_out.empty(),
                   "dead-end intersection");
  }
  if (require_strong_connectivity && net_.num_intersections() > 0) {
    IVC_ASSERT_MSG(is_strongly_connected(net_),
                   "interior road network must be strongly connected");
  }
  return std::move(net_);
}

}  // namespace ivc::roadnet

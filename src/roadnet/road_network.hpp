// Road network model.
//
// The network is a directed multigraph: intersections (nodes) joined by
// directed segments (edges). A bidirectional street is two paired segments
// (each stores the other as `reverse`); a one-way street is a single
// unpaired segment — the paper's n_o(u) != n_i(u) case.
//
// Open road systems (paper Sec. IV-B, Def. 1/2) are modeled with *gateway*
// edges: segments with exactly one valid endpoint. An inbound gateway
// (from == invalid) carries traffic from outside into a border intersection;
// an outbound gateway (to == invalid) carries traffic out. Gateway edges are
// the paper's "interaction" directions; graph algorithms operate on interior
// edges only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "roadnet/types.hpp"
#include "util/assert.hpp"

namespace ivc::roadnet {

enum class IntersectionKind : std::uint8_t {
  Standard,    // regular signal-free intersection, sequential admission
  Roundabout,  // multi-target-tracked circle; admits one vehicle per approach
};

struct Intersection {
  NodeId id;
  geom::Vec2 position;
  IntersectionKind kind = IntersectionKind::Standard;
  std::string name;

  // Interior edges only, in insertion order (deterministic iteration).
  std::vector<EdgeId> in_edges;
  std::vector<EdgeId> out_edges;
  // Gateway edges attached to this (border) intersection.
  std::vector<EdgeId> gateway_in;   // traffic entering the system here
  std::vector<EdgeId> gateway_out;  // traffic leaving the system here

  [[nodiscard]] bool is_border() const {
    return !gateway_in.empty() || !gateway_out.empty();
  }
};

struct Segment {
  EdgeId id;
  NodeId from;  // invalid => inbound gateway
  NodeId to;    // invalid => outbound gateway
  double length = 0.0;          // meters
  int lanes = 1;                // >= 1
  double speed_limit = 0.0;     // m/s
  EdgeId reverse;               // paired opposite segment; invalid for one-way

  [[nodiscard]] bool is_gateway() const { return !from.valid() || !to.valid(); }
  [[nodiscard]] bool is_inbound_gateway() const { return !from.valid() && to.valid(); }
  [[nodiscard]] bool is_outbound_gateway() const { return from.valid() && !to.valid(); }
  [[nodiscard]] bool one_way() const { return !is_gateway() && !reverse.valid(); }
};

class RoadNetwork {
 public:
  [[nodiscard]] std::size_t num_intersections() const { return intersections_.size(); }
  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }

  // Inline (with the bounds assert kept): these are the hottest calls in
  // the simulator — the engine and router resolve segments hundreds of
  // times per step, and an out-of-line call was measurable at city scale.
  [[nodiscard]] const Intersection& intersection(NodeId id) const {
    IVC_ASSERT(id.valid() && id.value() < intersections_.size());
    return intersections_[id.value()];
  }
  [[nodiscard]] const Segment& segment(EdgeId id) const {
    IVC_ASSERT(id.valid() && id.value() < segments_.size());
    return segments_[id.value()];
  }
  // Free-flow traversal time of an edge in seconds.
  [[nodiscard]] double free_flow_time(EdgeId e) const {
    const Segment& seg = segment(e);
    IVC_ASSERT(seg.speed_limit > 0.0);
    return seg.length / seg.speed_limit;
  }
  [[nodiscard]] const std::vector<Intersection>& intersections() const {
    return intersections_;
  }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  // Interior edge from u to v, if any (first match in u's out-edge order).
  [[nodiscard]] std::optional<EdgeId> edge_between(NodeId u, NodeId v) const;

  // Paper notation helpers: n_i(u) / n_o(u) — neighbor checkpoints along
  // inbound / outbound interior traffic.
  [[nodiscard]] std::vector<NodeId> inbound_neighbors(NodeId u) const;
  [[nodiscard]] std::vector<NodeId> outbound_neighbors(NodeId u) const;

  [[nodiscard]] std::vector<NodeId> border_intersections() const;
  [[nodiscard]] std::size_t num_interior_segments() const;
  [[nodiscard]] bool is_open_system() const;

  // Approximate network diameter in meters (max over shortest-path distances
  // from a corner node); used to calibrate experiment regions.
  [[nodiscard]] double approximate_diameter_m() const;

 private:
  friend class NetworkBuilder;
  std::vector<Intersection> intersections_;
  std::vector<Segment> segments_;
};

}  // namespace ivc::roadnet

// Patrol cycle construction (paper Theorems 3 & 4).
//
// The paper requires a cycle visiting every checkpoint so patrol cars can
// ferry counting statuses and break orphan-segment deadlocks. Our patrol
// cars additionally act as label (marker) carriers when departing an active
// checkpoint, which requires them to traverse specific *directed edges* —
// so we compute a closed walk covering every interior directed edge. That
// is a superset of the paper's checkpoint cycle: a cycle through every
// checkpoint can still skip the one direction no traffic drives, and that
// direction's marker would then never arrive
// (Patrol.TwoWayRingCoversBothDirections, Patrol.ValidatorRejectsIncompleteCover,
// Patrol.PatrolCarBreaksTheDeadlock).
//
// Construction: greedy uncovered-edge-first walking; when the current node
// has no uncovered out-edge, stitch in the shortest path to the nearest node
// that does; finally close the walk back to the start. On strongly connected
// networks this always terminates with full coverage.
#pragma once

#include <vector>

#include "roadnet/road_network.hpp"

namespace ivc::roadnet {

struct PatrolRoute {
  NodeId start;
  std::vector<EdgeId> edges;  // closed walk: consecutive edges share nodes;
                              // last edge returns to `start`
  double total_length = 0.0;  // meters

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] std::size_t size() const { return edges.size(); }
};

// Builds the covering walk. Network must be strongly connected.
[[nodiscard]] PatrolRoute plan_patrol_route(const RoadNetwork& net, NodeId start);

// True iff the route is a well-formed closed walk from route.start covering
// every interior directed edge at least once (used in tests and asserted by
// the patrol fleet on construction).
[[nodiscard]] bool validate_patrol_route(const RoadNetwork& net, const PatrolRoute& route);

}  // namespace ivc::roadnet

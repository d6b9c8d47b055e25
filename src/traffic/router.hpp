// Route planning for roaming and boundary trips.
//
// Routes minimize free-flow travel time with a small per-request
// multiplicative jitter so demand spreads over parallel streets the way a
// real city's does. An exclusion set supports the paper's "odd traffic
// pattern" experiments: demand that deliberately detours around a segment
// creates the orphan deadlock that patrol cars must break (Theorem 3).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "roadnet/road_network.hpp"
#include "util/rng.hpp"

namespace ivc::traffic {

class Router {
 public:
  // Per-request multiplicative jitter bounds on the free-flow edge cost:
  // route diversity that also flattens edge betweenness without maintaining
  // congestion state. Public because they bound every planned route's
  // free-flow cost relative to the unjittered optimum — any plan() result P
  // satisfies free_flow(P) <= (kJitterHi / kJitterLo) * free_flow(optimal),
  // the property the differential-testing harness checks against a naive
  // Dijkstra reference (src/testing/reference_kernel.hpp).
  static constexpr double kJitterLo = 0.75;
  static constexpr double kJitterHi = 1.35;

  Router(const roadnet::RoadNetwork& net, std::uint64_t seed);

  // Edges that demand refuses to route over (they remain drivable; the
  // patrol fleet still uses them). Setup-time only: the exclusion set must
  // be frozen before the first step.
  void exclude_edge(roadnet::EdgeId e);

  // Shortest jittered path from `from` to `to` over non-excluded interior
  // edges; all jitter comes from the caller's counter-based stream, so two
  // queries with equal (key, counter) yield the same route no matter which
  // thread plans first. Thread-safe (const; per-thread scratch). Returns
  // an empty vector when unreachable (caller falls back to a non-jittered,
  // non-excluded search before giving up).
  [[nodiscard]] std::vector<roadnet::EdgeId> plan(roadnet::NodeId from, roadnet::NodeId to,
                                                 util::StreamRng& rng) const;

  // Uniformly random interior destination different from `avoid`.
  [[nodiscard]] roadnet::NodeId random_destination(roadnet::NodeId avoid,
                                                   util::StreamRng& rng) const;

  // Convenience for serial callers (tests, benches, examples): same
  // algorithms drawing from an internal sequential stream seeded by the
  // constructor. NOT thread-safe and order-dependent by nature — the
  // engine/demand path always passes an explicit per-vehicle stream.
  [[nodiscard]] std::vector<roadnet::EdgeId> plan(roadnet::NodeId from, roadnet::NodeId to) {
    return plan(from, to, seq_);
  }
  [[nodiscard]] roadnet::NodeId random_destination(roadnet::NodeId avoid) {
    return random_destination(avoid, seq_);
  }

 private:
  // One interior out-edge of the flat adjacency, with its free-flow time
  // cached: plan() relaxes tens of thousands of edges per second at city
  // scale and must not walk the segment table to re-derive static weights.
  struct Arc {
    std::uint32_t to;
    roadnet::EdgeId edge;
    double free_flow;  // seconds
  };

  [[nodiscard]] bool excluded(roadnet::EdgeId e) const {
    return ((excluded_[e.value() >> 6] >> (e.value() & 63)) & 1u) != 0;
  }

  const roadnet::RoadNetwork& net_;
  util::StreamRng seq_;  // backs the convenience overloads only
  // Node u's arcs are arcs_[arc_begin_[u], arc_begin_[u + 1]), in
  // out_edges order. plan() draws one jitter per relaxed arc in this
  // order, so the order is part of every planned route.
  std::vector<std::uint32_t> arc_begin_;
  std::vector<Arc> arcs_;
  std::vector<geom::Vec2> position_;     // by NodeId, for the A* bound
  std::vector<std::uint64_t> excluded_;  // bitmap by EdgeId
  // A* lower bound in seconds per straight-line meter: jitter floor over
  // the fastest segment, corrected for shortcut segments (length shorter
  // than the endpoint distance) so the heuristic stays admissible.
  double heuristic_rate_ = 0.0;
};

}  // namespace ivc::traffic

#include "traffic/router.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "roadnet/graph.hpp"
#include "util/assert.hpp"

namespace ivc::traffic {

namespace {

// The jitter bounds live on the class (the differential harness checks
// planned routes against them); the lower bound also scales the A*
// heuristic, so it must stay a true floor on the realized edge cost.
constexpr double kJitterLo = Router::kJitterLo;
constexpr double kJitterHi = Router::kJitterHi;

struct QueueEntry {
  double estimate;  // g + heuristic (plain Dijkstra: heuristic = 0)
  double dist;      // g: jittered cost from the source
  std::uint32_t node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.node > b.node;
  }
};
}  // namespace

Router::Router(const roadnet::RoadNetwork& net, std::uint64_t seed)
    : net_(net),
      seq_(util::derive_seed(seed, "router-seq")),
      excluded_((net.num_segments() + 63) / 64, 0) {
  arc_begin_.reserve(net_.num_intersections() + 1);
  position_.reserve(net_.num_intersections());
  for (const auto& node : net_.intersections()) {
    IVC_ASSERT(node.id.value() == position_.size());
    arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    position_.push_back(node.position);
    for (const roadnet::EdgeId e : node.out_edges) {
      arcs_.push_back({net_.segment(e).to.value(), e, net_.free_flow_time(e)});
    }
  }
  arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));

  double max_speed = 0.0;
  // Admissibility guard: the builder accepts explicit segment lengths, and
  // nothing forbids a length shorter than the straight-line distance
  // between its endpoints (a tunnel-like shortcut). The heuristic divides
  // by the worst such shortcut ratio so remaining-cost estimates stay true
  // lower bounds on every buildable map.
  double shortcut = 1.0;
  for (const auto& seg : net_.segments()) {
    max_speed = std::max(max_speed, seg.speed_limit);
    if (seg.is_gateway()) continue;  // plan() never traverses gateways
    const geom::Vec2 d = net_.intersection(seg.to).position -
                         net_.intersection(seg.from).position;
    const double euclid = std::sqrt(d.x * d.x + d.y * d.y);
    if (euclid > 0.0) shortcut = std::min(shortcut, seg.length / euclid);
  }
  // Seconds of lower-bound travel per meter of straight-line distance.
  heuristic_rate_ = max_speed > 0.0 ? kJitterLo * shortcut / max_speed : 0.0;
}

void Router::exclude_edge(roadnet::EdgeId e) {
  IVC_ASSERT(e.valid() && e.value() < net_.num_segments());
  excluded_[e.value() >> 6] |= std::uint64_t{1} << (e.value() & 63);
}

std::vector<roadnet::EdgeId> Router::plan(roadnet::NodeId from, roadnet::NodeId to,
                                          util::StreamRng& rng) const {
  IVC_ASSERT(from.valid() && to.valid());
  if (from == to) return {};
  const std::size_t n = net_.num_intersections();
  // Per-thread scratch: sweep threads plan concurrently on different
  // worlds (route replanning at the stop line), and these arrays are pure
  // workspace — sharing them per thread instead of per Router keeps the
  // hot path allocation-free without any locking.
  static thread_local std::vector<double> dist_scratch;
  static thread_local std::vector<roadnet::EdgeId> parent_scratch;
  static thread_local std::vector<QueueEntry> heap;
  // The scratch outlives any single Router (thread_local): the same pool
  // thread may plan on a city-scale network and then on a toy one for a
  // different engine. Every entry below is (re)written for THIS network —
  // assign() sizes to n and overwrites the full range, never trusting
  // leftovers — and a grossly oversized backing store from an earlier,
  // larger network is released rather than pinned forever.
  if (dist_scratch.capacity() > 4 * n + 64) {
    std::vector<double>().swap(dist_scratch);
    std::vector<roadnet::EdgeId>().swap(parent_scratch);
    std::vector<QueueEntry>().swap(heap);
  }
  dist_scratch.assign(n, roadnet::kUnreachable);
  parent_scratch.assign(n, roadnet::EdgeId::invalid());

  // A* with an admissible, consistent heuristic: remaining cost is at
  // least heuristic_rate_ seconds per straight-line meter (jitter floor /
  // max speed, corrected for shortcut segments — see the constructor). On
  // a city-scale grid this expands a corridor toward the destination
  // instead of flooding the whole map (the planner runs inside the
  // engine's step, so its cost is part of the per-step budget).
  const geom::Vec2 goal = position_[to.value()];
  const auto heuristic = [&](std::uint32_t v) {
    const geom::Vec2 d = position_[v] - goal;
    return heuristic_rate_ * std::sqrt(d.x * d.x + d.y * d.y);
  };

  // A min-heap by (estimate, node): the same push_heap/pop_heap sequence
  // std::priority_queue runs, on a vector reused across calls.
  const auto push = [&](const QueueEntry& entry) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  heap.clear();
  dist_scratch[from.value()] = 0.0;
  push({heuristic(from.value()), 0.0, from.value()});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [est, d, u] = heap.back();
    heap.pop_back();
    if (d > dist_scratch[u]) continue;
    if (u == to.value()) break;
    for (std::uint32_t a = arc_begin_[u]; a != arc_begin_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (excluded(arc.edge)) continue;
      const double w = arc.free_flow * rng.uniform(kJitterLo, kJitterHi);
      const double nd = d + w;
      if (nd < dist_scratch[arc.to]) {
        dist_scratch[arc.to] = nd;
        parent_scratch[arc.to] = arc.edge;
        push({nd + heuristic(arc.to), nd, arc.to});
      }
    }
  }
  if (dist_scratch[to.value()] == roadnet::kUnreachable) return {};
  std::vector<roadnet::EdgeId> path;
  for (roadnet::NodeId v = to; v != from;) {
    const roadnet::EdgeId e = parent_scratch[v.value()];
    path.push_back(e);
    v = net_.segment(e).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

roadnet::NodeId Router::random_destination(roadnet::NodeId avoid,
                                           util::StreamRng& rng) const {
  IVC_ASSERT(net_.num_intersections() > 1);
  for (;;) {
    const auto idx =
        static_cast<std::uint32_t>(rng.uniform_index(net_.num_intersections()));
    if (roadnet::NodeId{idx} != avoid) return roadnet::NodeId{idx};
  }
}

}  // namespace ivc::traffic

// SimEngine behaviour: spawning, FIFO, conservation, determinism,
// admission discipline, gateways.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "roadnet/builder.hpp"
#include "roadnet/manhattan.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"
#include "traffic/sim_engine.hpp"
#include "traffic/trace.hpp"

namespace ivc::traffic {
namespace {

using roadnet::EdgeId;
using roadnet::NodeId;
using roadnet::RoadNetwork;
using roadnet::make_ring;
using roadnet::make_one_way_ring;
using roadnet::make_manhattan_grid;

ExteriorAttributes sedan() {
  ExteriorAttributes a;
  a.color = Color::Blue;
  a.type = BodyType::Sedan;
  return a;
}

// Ring loop route. `next` starts at 1 because tests spawn vehicles on the
// first edge (0 -> 1); the continuation from node 1 is edges[1].
Route loop_route(const RoadNetwork& net, int n, std::size_t next = 1) {
  Route r;
  r.cyclic = true;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n); ++i) {
    const auto e = net.edge_between(NodeId{i}, NodeId{(i + 1) % static_cast<std::uint32_t>(n)});
    r.edges.push_back(*e);
  }
  r.next = next % r.edges.size();
  return r;
}

TEST(Engine, SpawnRespectsJamGap) {
  const RoadNetwork net = make_ring(4, 200.0);
  SimEngine engine(net, SimConfig::simple_model());
  const EdgeId e = net.intersection(NodeId{0}).out_edges[0];
  const auto first = engine.spawn_at(e, 0, 50.0, sedan(), loop_route(net, 4));
  ASSERT_TRUE(first.valid());
  // Right on top of the first vehicle: rejected.
  EXPECT_FALSE(engine.spawn_at(e, 0, 50.5, sedan(), loop_route(net, 4)).valid());
  // Comfortably behind: accepted.
  EXPECT_TRUE(engine.spawn_at(e, 0, 30.0, sedan(), loop_route(net, 4)).valid());
  EXPECT_EQ(engine.alive_count(), 2u);
}

TEST(Engine, TrySpawnAtStartFillsThenRejects) {
  const RoadNetwork net = make_ring(4, 200.0);
  SimEngine engine(net, SimConfig::simple_model());
  const EdgeId e = net.intersection(NodeId{0}).out_edges[0];
  int spawned = 0;
  // Repeated start-spawns without stepping: only the first fits at pos 0.
  for (int i = 0; i < 5; ++i) {
    if (engine.try_spawn_at_start(e, sedan(), loop_route(net, 4)).valid()) ++spawned;
  }
  EXPECT_EQ(spawned, 1);
}

TEST(Engine, VehiclesMoveForwardAndRespectSpeedLimit) {
  const RoadNetwork net = make_ring(6, 300.0, 10.0);
  SimEngine engine(net, SimConfig::simple_model());
  const EdgeId e = net.intersection(NodeId{0}).out_edges[0];
  const auto id = engine.spawn_at(e, 0, 0.0, sedan(), loop_route(net, 6), 1.0);
  ASSERT_TRUE(id.valid());
  double last_speed = 0.0;
  for (int i = 0; i < 60; ++i) {
    engine.step();
    const auto veh = engine.vehicle(id);
    EXPECT_LE(veh.speed(), 10.0 + 1e-9);
    last_speed = veh.speed();
  }
  EXPECT_NEAR(last_speed, 10.0, 0.5);  // reached free-flow speed
}

TEST(Engine, SingleLaneFifoPreserved) {
  const RoadNetwork net = make_ring(4, 300.0, 10.0);
  SimConfig config = SimConfig::simple_model();
  SimEngine engine(net, config);
  const EdgeId e = net.intersection(NodeId{0}).out_edges[0];
  // Three vehicles, front one slow: order must never change on the lane.
  const auto a = engine.spawn_at(e, 0, 100.0, sedan(), loop_route(net, 4), 0.85);
  const auto b = engine.spawn_at(e, 0, 50.0, sedan(), loop_route(net, 4), 1.2);
  const auto c = engine.spawn_at(e, 0, 10.0, sedan(), loop_route(net, 4), 1.2);
  ASSERT_TRUE(a.valid() && b.valid() && c.valid());
  TransitCounter transits;
  engine.add_observer(&transits);
  for (int i = 0; i < 200; ++i) {
    engine.step();
    // Lane order invariant: sorted ascending by position, no overlaps.
    for (const auto& seg : net.segments()) {
      for (int lane = 0; lane < seg.lanes; ++lane) {
        const auto& lane_list = engine.lane_vehicles(seg.id, lane);
        for (std::size_t i2 = 1; i2 < lane_list.size(); ++i2) {
          const auto rear = engine.vehicle(lane_list[i2 - 1]);
          const auto front = engine.vehicle(lane_list[i2]);
          ASSERT_LE(rear.position(), front.position());
        }
      }
    }
  }
  // The slow leader transits first (it started in front) despite faster
  // followers — FIFO.
  EXPECT_GE(transits.of_vehicle(a), transits.of_vehicle(b));
  EXPECT_GE(transits.of_vehicle(b), transits.of_vehicle(c));
}

TEST(Engine, ClosedSystemConservesVehicles) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 4;
  const RoadNetwork net = make_manhattan_grid(mc);
  SimConfig config;
  config.seed = 5;
  SimEngine engine(net, config);
  Router router(net, 6);
  DemandConfig dc;
  dc.vehicles_at_100pct = 120;
  dc.seed = 7;
  DemandModel demand(engine, router, dc);
  engine.set_route_planner(
      [&demand](VehicleId v, NodeId n) { return demand.plan_continuation(v, n); });
  const std::size_t placed = demand.init_population();
  EXPECT_GT(placed, 100u);
  for (int i = 0; i < 600; ++i) engine.step();
  EXPECT_EQ(engine.alive_count(), placed);
  EXPECT_EQ(engine.population_inside(), placed);
  EXPECT_GT(engine.total_transits(), 0u);
}

TEST(Engine, DeterministicGivenSeed) {
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 4;
  const RoadNetwork net = make_manhattan_grid(mc);
  auto run = [&net]() {
    SimConfig config;
    config.seed = 11;
    SimEngine engine(net, config);
    Router router(net, 12);
    DemandConfig dc;
    dc.vehicles_at_100pct = 80;
    dc.seed = 13;
    DemandModel demand(engine, router, dc);
    engine.set_route_planner(
        [&demand](VehicleId v, NodeId n) { return demand.plan_continuation(v, n); });
    demand.init_population();
    for (int i = 0; i < 400; ++i) engine.step();
    std::vector<std::tuple<std::uint32_t, double, double>> state;
    const VehicleStore& store = engine.store();
    for (std::uint32_t slot = 0; slot < store.slot_count(); ++slot) {
      state.emplace_back(store.edge[slot].value(), store.position[slot],
                         store.speed[slot]);
    }
    return state;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, TransitEventsChainContinuously) {
  const RoadNetwork net = make_one_way_ring(5, 150.0, 10.0);
  SimEngine engine(net, SimConfig::simple_model());
  const EdgeId e0 = net.intersection(NodeId{0}).out_edges[0];
  Route route;
  route.cyclic = true;
  for (std::uint32_t i = 0; i < 5; ++i) {
    route.edges.push_back(net.intersection(NodeId{i}).out_edges[0]);
  }
  route.next = 1;  // spawned on edges[0]
  ASSERT_TRUE(engine.spawn_at(e0, 0, 0.0, sedan(), route).valid());
  EventRecorder recorder;
  engine.add_observer(&recorder);
  for (int i = 0; i < 400; ++i) engine.step();
  ASSERT_GE(recorder.transits.size(), 4u);
  for (const auto& t : recorder.transits) {
    EXPECT_EQ(net.segment(t.from_edge).to, t.node);
    EXPECT_EQ(net.segment(t.to_edge).from, t.node);
  }
  // Consecutive transits of the same vehicle share the connecting edge.
  for (std::size_t i = 1; i < recorder.transits.size(); ++i) {
    EXPECT_EQ(recorder.transits[i - 1].to_edge, recorder.transits[i].from_edge);
  }
}

TEST(Engine, SimpleModelAdmitsOneVehiclePerStep) {
  // Two approaches feeding one node; both fronts waiting: the simple model
  // admits at most one per step.
  roadnet::NetworkBuilder b;
  roadnet::RoadSpec rs;
  rs.lanes = 1;
  rs.speed_limit = 15.0;
  const NodeId hub = b.add_intersection({0, 0});
  const NodeId west = b.add_intersection({-80, 0});
  const NodeId east = b.add_intersection({80, 0});
  b.add_two_way(west, hub, rs);
  b.add_two_way(hub, east, rs);
  b.add_two_way(west, east, rs, 400.0);  // return loop keeps it connected
  const RoadNetwork net = b.build();

  SimEngine engine(net, SimConfig::simple_model());
  EventRecorder recorder;
  engine.add_observer(&recorder);
  const EdgeId we = *net.edge_between(west, hub);
  const EdgeId ew = *net.edge_between(east, hub);
  Route to_east;
  to_east.edges = {*net.edge_between(hub, east)};
  Route to_west;
  to_west.edges = {*net.edge_between(hub, west)};
  ASSERT_TRUE(engine.spawn_at(we, 0, 78.0, sedan(), to_east).valid());
  ASSERT_TRUE(engine.spawn_at(ew, 0, 78.0, sedan(), to_west).valid());
  // Give both fronts time to reach the stop line, then count same-step
  // admissions at the hub.
  std::map<std::int64_t, int> admissions_per_step;
  for (int i = 0; i < 40; ++i) {
    const std::size_t before = recorder.transits.size();
    engine.step();
    int hub_admissions = 0;
    for (std::size_t k = before; k < recorder.transits.size(); ++k) {
      if (recorder.transits[k].node == hub) ++hub_admissions;
    }
    EXPECT_LE(hub_admissions, 1);
  }
}

TEST(Engine, OpenSystemDespawnsAtGatewayEnd) {
  roadnet::NetworkBuilder b;
  roadnet::RoadSpec rs;
  rs.lanes = 1;
  rs.speed_limit = 10.0;
  const NodeId a = b.add_intersection({0, 0});
  const NodeId c = b.add_intersection({120, 0});
  b.add_two_way(a, c, rs);
  const EdgeId gout = b.add_outbound_gateway(c, rs, 100.0);
  b.add_inbound_gateway(a, rs, 100.0);
  const RoadNetwork net = b.build();

  SimEngine engine(net, SimConfig::simple_model());
  EventRecorder recorder;
  engine.add_observer(&recorder);
  Route exit_route;
  exit_route.edges = {*net.edge_between(a, c), gout};
  const auto id = engine.spawn_at(*net.edge_between(a, c), 0, 100.0, sedan(),
                                  Route{{gout}, 0, false});
  ASSERT_TRUE(id.valid());
  for (int i = 0; i < 200 && engine.alive_count() > 0; ++i) engine.step();
  EXPECT_EQ(engine.alive_count(), 0u);
  ASSERT_EQ(recorder.despawns.size(), 1u);
  EXPECT_EQ(recorder.despawns[0].vehicle, id);
  EXPECT_EQ(recorder.despawns[0].edge, gout);
  EXPECT_EQ(engine.population_inside(), 0u);
}

TEST(Engine, EntrySequenceMonotonePerEdge) {
  const RoadNetwork net = make_one_way_ring(4, 120.0, 10.0);
  SimEngine engine(net, SimConfig::simple_model());
  Route route;
  route.cyclic = true;
  for (std::uint32_t i = 0; i < 4; ++i) {
    route.edges.push_back(net.intersection(NodeId{i}).out_edges[0]);
  }
  route.next = 1;  // spawned on edges[0]
  const EdgeId e0 = net.intersection(NodeId{0}).out_edges[0];
  ASSERT_TRUE(engine.spawn_at(e0, 0, 60.0, sedan(), route).valid());
  ASSERT_TRUE(engine.spawn_at(e0, 0, 20.0, sedan(), route).valid());
  for (int i = 0; i < 300; ++i) {
    engine.step();
    for (const auto& seg : net.segments()) {
      const auto& lane = engine.lane_vehicles(seg.id, 0);
      // Within a FIFO lane, position order equals entry order.
      for (std::size_t k = 1; k < lane.size(); ++k) {
        EXPECT_GT(engine.vehicle(lane[k - 1]).entry_seq(),
                  engine.vehicle(lane[k]).entry_seq());
      }
    }
  }
}

// Regression (stop-line admission): a follower behind a leader that is
// waiting for admission *past* the segment end must itself hold at the
// stop line — it has passed no admission check. The overlap clamp used to
// derive the follower's limit from the leader's raw position, which lands
// past the stop line whenever the leader's overflow beyond the end exceeds
// its body length; only the IDM gap (already capped at the segment end)
// kept followers out of the intersection box, and only for driver
// parameters that brake hard enough. The clamp now enforces the invariant
// structurally: no non-front vehicle ever crosses the stop line.
TEST(Engine, FollowerBehindStuckLeaderHoldsAtStopLine) {
  roadnet::NetworkBuilder b;
  roadnet::RoadSpec fast;
  fast.lanes = 1;
  fast.speed_limit = 25.0;
  const NodeId a = b.add_intersection({0, 0});
  const NodeId c = b.add_intersection({0, 60});
  const NodeId x = b.add_intersection({600, 0});
  const NodeId y = b.add_intersection({800, 0});
  const EdgeId ax = b.add_one_way(a, x, fast, 600.0);
  const EdgeId cx = b.add_one_way(c, x, fast, 600.0);
  const EdgeId xy = b.add_one_way(x, y, fast, 200.0);
  const EdgeId ya = b.add_one_way(y, a, fast, 700.0);  // close the loop
  b.add_one_way(y, c, fast, 700.0);  // strong connectivity needs C reachable
  const RoadNetwork net = b.build();

  SimEngine engine(net, SimConfig::simple_model());
  // Cork: a parked vehicle (desired speed 0) leaving room for exactly one
  // entrant at the start of X->Y.
  ASSERT_TRUE(
      engine.spawn_at(xy, 0, 10.6, sedan(), Route{{ya}, 0, false}, 0.0).valid());
  // Twin racers at identical positions on the two approaches: identical
  // dynamics give identical overflow, and the admission tie-break (smaller
  // id wins) deterministically strands the later-spawned racer past the
  // segment end once the winner has plugged the remaining room on X->Y.
  const VehicleId winner = engine.spawn_at(cx, 0, 560.0, sedan(), Route{{xy}, 0, false});
  const VehicleId loser = engine.spawn_at(ax, 0, 560.0, sedan(), Route{{xy}, 0, false});
  // The follower gets a long run-up so it reaches the stop line fast.
  const VehicleId follower = engine.spawn_at(ax, 0, 380.0, sedan(), Route{{xy}, 0, false});
  ASSERT_TRUE(winner.valid() && loser.valid() && follower.valid());

  const double seg_len = net.segment(ax).length;
  const double stop_line = seg_len - 0.5;  // kStopMargin
  bool leader_stranded = false;
  double follower_peak = 0.0;
  for (int i = 0; i < 200; ++i) {
    engine.step();
    // The invariant under test: only the front vehicle of a lane may be
    // past the stop line; every follower stops behind it.
    const auto& lane = engine.lane_vehicles(ax, 0);
    for (std::size_t k = 0; k + 1 < lane.size(); ++k) {
      ASSERT_LE(engine.vehicle(lane[k]).position(), stop_line + 1e-9)
          << "follower crossed the stop line at step " << i;
    }
    const VehicleRef stuck = engine.vehicle(loser);
    if (stuck.edge() == ax && stuck.position() >= seg_len) leader_stranded = true;
    const VehicleRef f = engine.vehicle(follower);
    if (f.edge() == ax) follower_peak = std::max(follower_peak, f.position());
  }
  // Non-vacuity: the loser really waited beyond the end (its overflow makes
  // the naive leader-based limit land past the stop line), and the follower
  // really pressed up against the stop line behind it.
  EXPECT_TRUE(leader_stranded);
  EXPECT_GT(engine.vehicle(loser).position(), seg_len);
  EXPECT_GT(follower_peak, seg_len - 10.0);
}

TEST(Engine, RunForAdvancesClock) {
  const RoadNetwork net = make_ring(3);
  SimEngine engine(net, SimConfig{});
  engine.run_for(util::SimTime::from_seconds(10.0));
  EXPECT_DOUBLE_EQ(engine.now().seconds(), 10.0);
  EXPECT_EQ(engine.step_count(), 20u);  // dt = 0.5
}

}  // namespace
}  // namespace ivc::traffic

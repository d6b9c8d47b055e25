// Unit tests for the differential-testing building blocks: the fuzz-case
// seed encoding, the reference kernel's bit-exact equivalence with the
// fast engine, and the naive-Dijkstra route validation.
#include <gtest/gtest.h>

#include "roadnet/builder.hpp"
#include "roadnet/manhattan.hpp"
#include "serve/snapshot.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"
#include "testing/reference_kernel.hpp"
#include "traffic/demand.hpp"
#include "traffic/router.hpp"

namespace ivc::testing {
namespace {

using roadnet::NodeId;
using roadnet::RoadNetwork;

// ---- fuzz-case encoding -----------------------------------------------------

TEST(FuzzCaseEncoding, ShrinkSpecRoundTrips) {
  for (int len = 0; len <= 3; ++len) {
    for (int demand = 0; demand <= 1; ++demand) {
      for (int scale = 0; scale <= 3; ++scale) {
        ShrinkSpec spec;
        spec.length_halvings = len;
        spec.halve_demand = demand != 0;
        spec.scale_steps = scale;
        const std::uint64_t seed = with_shrink(0x23456789abcdefULL, spec);
        const ShrinkSpec back = unpack_shrink(seed);
        EXPECT_EQ(back.length_halvings, spec.length_halvings);
        EXPECT_EQ(back.halve_demand, spec.halve_demand);
        EXPECT_EQ(back.scale_steps, spec.scale_steps);
        // The base case is untouched by the shrink byte.
        EXPECT_EQ(seed & kBaseSeedMask, 0x23456789abcdefULL);
      }
    }
  }
}

TEST(FuzzCaseEncoding, CaseGenerationIsDeterministic) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const FuzzCase a = make_fuzz_case(seed);
    const FuzzCase b = make_fuzz_case(seed);
    EXPECT_EQ(a.summary, b.summary);
    EXPECT_EQ(a.config.describe(), b.config.describe());
    EXPECT_EQ(a.config.seed, b.config.seed);
  }
  EXPECT_NE(make_fuzz_case(1).summary, make_fuzz_case(2).summary);
}

TEST(FuzzCaseEncoding, ShrinkReducesRunLengthAndDemand) {
  const FuzzCase base = make_fuzz_case(7);
  ShrinkSpec spec;
  spec.length_halvings = 2;
  spec.halve_demand = true;
  const FuzzCase shrunk = make_fuzz_case(with_shrink(7, spec));
  EXPECT_LT(shrunk.config.time_limit_minutes, base.config.time_limit_minutes);
  EXPECT_LT(shrunk.config.vehicles_at_100pct, base.config.vehicles_at_100pct);
  // Same base case: the replica seed and mode are unchanged.
  EXPECT_EQ(shrunk.config.seed, base.config.seed);
  EXPECT_EQ(shrunk.config.mode, base.config.mode);
}

// ---- reference kernel -------------------------------------------------------

// Fast engine and reference kernel, fully wired with demand, on the same
// open grid and seed: the event streams must agree bit for bit, and the
// reference recounts must find nothing.
TEST(ReferenceKernel, MatchesFastEngineEventStream) {
  const auto run = [](bool reference) {
    roadnet::ManhattanConfig mc;
    mc.streets = 5;
    mc.avenues = 4;
    mc.gateway_stride = 1;
    const RoadNetwork net = roadnet::make_manhattan_grid(mc);
    traffic::SimConfig sc;
    sc.seed = 33;
    std::unique_ptr<traffic::SimEngine> engine;
    ReferenceKernel* kernel = nullptr;
    if (reference) {
      auto ref = std::make_unique<ReferenceKernel>(net, sc);
      kernel = ref.get();
      engine = std::move(ref);
    } else {
      engine = std::make_unique<traffic::SimEngine>(net, sc);
    }
    traffic::Router router(net, util::derive_seed(33, "router"));
    traffic::DemandConfig dc;
    dc.vehicles_at_100pct = 60;
    dc.arrival_rate_at_100pct = 0.5;
    dc.exit_probability = 0.4;
    dc.seed = util::derive_seed(33, "demand");
    traffic::DemandModel demand(*engine, router, dc);
    engine->set_route_planner([&demand](traffic::VehicleId v, NodeId n) {
      return demand.plan_continuation(v, n);
    });
    EventStreamHasher hasher;
    hasher.bind(engine.get());
    engine->add_observer(&hasher);
    demand.init_population();
    const auto& alive = engine->alive_vehicles();
    for (std::size_t i = 0; i < std::min<std::size_t>(alive.size(), 10); ++i) {
      engine->set_watched(alive[i], true);
    }
    for (int i = 0; i < 1200; ++i) {
      demand.update();
      engine->step();
    }
    EXPECT_GT(hasher.event_count(), 100u);
    EXPECT_EQ(hasher.ledger_population(),
              static_cast<std::int64_t>(engine->population_inside()));
    if (kernel != nullptr) {
      EXPECT_EQ(kernel->violation_count(), 0u)
          << "first violation: "
          << (kernel->violations().empty() ? "?" : kernel->violations().front());
      EXPECT_EQ(kernel->checked_steps(), engine->step_count());
    }
    return hasher.hash();
  };
  EXPECT_EQ(run(false), run(true));
}

// The serial dynamics phase integrates the occupied lanes four at a time,
// round-robin over their vehicles, and finishes with one-lane passes; the
// reference kernel integrates every lane on its own. Stepped side by side
// on a dense multi-lane ring, the two engines must hold byte-identical
// state after every step. The world is built so that the occupied-lane
// count is not a multiple of four (the one-lane tail runs), the first
// group of four holds lanes of unequal length (lanes run out mid-group)
// and front vehicles start inside the intersection lookahead with no
// route left (they replan inside the dynamics phase).
TEST(ReferenceKernel, InterleavedDynamicsMatchesLaneByLaneEveryStep) {
  roadnet::NetworkBuilder b;
  roadnet::RoadSpec rs;
  rs.lanes = 3;
  rs.speed_limit = 12.0;
  const NodeId n0 = b.add_intersection({0, 0});
  const NodeId n1 = b.add_intersection({180, 0});
  const NodeId n2 = b.add_intersection({180, 140});
  const NodeId n3 = b.add_intersection({0, 140});
  b.add_two_way(n0, n1, rs);
  b.add_two_way(n1, n2, rs);
  b.add_two_way(n2, n3, rs);
  b.add_two_way(n3, n0, rs);
  const RoadNetwork net = b.build();

  struct Platoon {
    NodeId from, to;
    int lane;
    int vehicles;
    double front;  // front vehicle's position from the segment start (m)
  };
  // Eleven occupied lanes. In lane-index order the first four hold 5, 1, 8
  // and 3 vehicles; fronts at 150+ m on 180 m and 110+ m on 140 m segments
  // are inside the 40 m lookahead from the first step.
  const Platoon platoons[] = {
      {n0, n1, 0, 5, 165.0}, {n0, n1, 1, 1, 60.0},  {n0, n1, 2, 8, 150.0},
      {n1, n0, 0, 3, 170.0}, {n1, n0, 2, 6, 100.0}, {n1, n2, 1, 7, 130.0},
      {n2, n1, 0, 2, 120.0}, {n2, n3, 0, 4, 175.0}, {n2, n3, 2, 9, 170.0},
      {n3, n2, 1, 5, 90.0},  {n3, n0, 1, 6, 135.0},
  };

  struct World {
    std::unique_ptr<traffic::SimEngine> engine;
    EventStreamHasher hasher;
    int replans = 0;
  };
  const auto make_world = [&](World& w, bool reference) {
    traffic::SimConfig sc;
    sc.seed = 17;
    if (reference) {
      w.engine = std::make_unique<ReferenceKernel>(net, sc);
    } else {
      w.engine = std::make_unique<traffic::SimEngine>(net, sc);
    }
    traffic::SimEngine& engine = *w.engine;
    // Continuations are one random out-edge drawn from the replanning
    // vehicle's own stream, like the demand model's replans.
    engine.set_route_planner([&net, &w](traffic::VehicleId id, NodeId node) {
      ++w.replans;
      const auto& out = net.intersection(node).out_edges;
      traffic::Route route;
      route.edges = {out[w.engine->draw_for(id) % out.size()]};
      return route;
    });
    w.hasher.bind(&engine);
    engine.add_observer(&w.hasher);
    traffic::ExteriorAttributes attrs;
    attrs.type = traffic::BodyType::Sedan;
    int n = 0;
    for (const Platoon& p : platoons) {
      const roadnet::EdgeId edge = *net.edge_between(p.from, p.to);
      for (int v = 0; v < p.vehicles; ++v, ++n) {
        // Mixed desired speeds, so followers close in, brake and change lanes.
        const double factor = 0.8 + 0.05 * static_cast<double>(n % 8);
        const traffic::VehicleId id = engine.spawn_at(edge, p.lane, p.front - 9.0 * v, attrs,
                                                      traffic::Route{}, factor);
        ASSERT_TRUE(id.valid());
      }
    }
  };
  World fast;
  World ref;
  make_world(fast, false);
  make_world(ref, true);

  ASSERT_EQ(fast.engine->occupied_lane_count(), 11u);
  // Lane-index order is segment-major; the first group of four is uneven.
  std::vector<std::size_t> first_group;
  for (const roadnet::Segment& seg : net.segments()) {
    for (int lane = 0; lane < seg.lanes && first_group.size() < 4; ++lane) {
      const std::size_t n = fast.engine->lane_vehicles(seg.id, lane).size();
      if (n > 0) first_group.push_back(n);
    }
  }
  ASSERT_EQ(first_group, (std::vector<std::size_t>{5, 1, 8, 3}));
  fast.engine->step();
  ref.engine->step();
  // Only the dynamics phase replans on the first step: nobody has reached
  // a segment end yet, so these are lookahead replans of front vehicles.
  EXPECT_GT(fast.replans, 0);

  const auto engine_state = [](const traffic::SimEngine& engine) {
    serve::Snapshot snap;
    engine.save(snap);
    return snap.section("engine");
  };
  for (int step = 1; step <= 600; ++step) {
    ASSERT_EQ(engine_state(*fast.engine), engine_state(*ref.engine))
        << "engine state diverged after step " << step;
    ASSERT_EQ(fast.replans, ref.replans) << "after step " << step;
    fast.engine->step();
    ref.engine->step();
  }
  EXPECT_EQ(fast.hasher.hash(), ref.hasher.hash());
  EXPECT_GT(fast.engine->total_transits(), 50u);
  const auto& kernel = static_cast<const ReferenceKernel&>(*ref.engine);
  EXPECT_EQ(kernel.violation_count(), 0u)
      << (kernel.violations().empty() ? "" : kernel.violations().front());
}

TEST(ReferenceKernel, PopulationScanMatchesCounter) {
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 3;
  mc.gateway_stride = 2;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::SimConfig sc;
  sc.seed = 9;
  ReferenceKernel kernel(net, sc);
  traffic::Router router(net, util::derive_seed(9, "router"));
  traffic::DemandConfig dc;
  dc.vehicles_at_100pct = 30;
  dc.seed = util::derive_seed(9, "demand");
  traffic::DemandModel demand(kernel, router, dc);
  kernel.set_route_planner([&demand](traffic::VehicleId v, NodeId n) {
    return demand.plan_continuation(v, n);
  });
  demand.init_population();
  for (int i = 0; i < 400; ++i) {
    demand.update();
    kernel.step();
  }
  EXPECT_EQ(reference_population_inside(kernel), kernel.population_inside());
  EXPECT_EQ(kernel.violation_count(), 0u);
}

// ---- naive Dijkstra + route validation --------------------------------------

TEST(ReferenceDijkstra, PlannedRoutesPassValidation) {
  roadnet::ManhattanConfig mc;
  mc.streets = 6;
  mc.avenues = 5;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::Router router(net, 77);
  int validated = 0;
  for (std::uint32_t from = 0; from < net.num_intersections(); from += 3) {
    for (std::uint32_t to = 1; to < net.num_intersections(); to += 7) {
      if (from == to) continue;
      traffic::Route route;
      route.edges = router.plan(NodeId{from}, NodeId{to});
      if (route.edges.empty()) continue;
      const std::string fail = validate_continuation(net, NodeId{from}, route);
      EXPECT_EQ(fail, "") << "route " << from << "->" << to;
      ++validated;
    }
  }
  EXPECT_GT(validated, 20);
}

TEST(ReferenceDijkstra, RejectsDiscontinuousAndOverpricedRoutes) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 5;
  const RoadNetwork net = roadnet::make_manhattan_grid(mc);
  traffic::Router router(net, 5);

  // A route whose first edge does not leave the stated node.
  traffic::Route route;
  route.edges = router.plan(NodeId{0}, NodeId{12});
  ASSERT_FALSE(route.edges.empty());
  const NodeId wrong_start{net.segment(route.edges.front()).to.value()};
  EXPECT_NE(validate_continuation(net, wrong_start, route), "");

  // A grossly indirect route: out and back over the same street repeatedly
  // blows through the jitter envelope of the direct optimum.
  const auto& out0 = net.intersection(NodeId{0}).out_edges;
  ASSERT_FALSE(out0.empty());
  traffic::Route wander;
  NodeId at{0};
  // Walk 40 greedy hops to wherever; the free-flow cost of this walk vastly
  // exceeds 1.8x the shortest path to its endpoint on a 5x5 block grid.
  for (int hop = 0; hop < 40; ++hop) {
    const auto& out = net.intersection(at).out_edges;
    ASSERT_FALSE(out.empty());
    wander.edges.push_back(out.front());
    at = net.segment(out.front()).to;
  }
  EXPECT_NE(validate_continuation(net, NodeId{0}, wander), "");

  const double direct = reference_shortest_free_flow(net, NodeId{0}, at);
  EXPECT_LT(direct, 40 * net.free_flow_time(out0.front()));
}

}  // namespace
}  // namespace ivc::testing

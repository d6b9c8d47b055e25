// Assert-path death tests: IVC_ASSERT stays enabled in release builds, the
// GenId generation check actually fires on stale handles, and the engine
// refuses a thread count other than 1. The happy
// path of slot recycling is covered in test_traffic_lifecycle.cpp; these
// verify the *unhappy* path — a stale id must abort loudly, not alias the
// slot's new occupant.
#include <gtest/gtest.h>

#include <memory>

#include "roadnet/builder.hpp"
#include "traffic/sim_engine.hpp"
#include "util/assert.hpp"

namespace ivc {
namespace {

using roadnet::EdgeId;
using roadnet::NodeId;

TEST(AssertDeath, AssertAbortsWithExpressionAndLocation) {
  EXPECT_DEATH(IVC_ASSERT(1 + 1 == 3), "IVC_ASSERT failed: 1 \\+ 1 == 3");
}

TEST(AssertDeath, AssertMsgCarriesTheMessage) {
  EXPECT_DEATH(IVC_ASSERT_MSG(false, "the custom diagnostic"), "the custom diagnostic");
}

TEST(AssertDeath, UnreachableAborts) {
  EXPECT_DEATH(IVC_UNREACHABLE("impossible state"), "impossible state");
}

TEST(AssertDeath, AssertPassesSilently) {
  IVC_ASSERT(2 + 2 == 4);
  IVC_ASSERT_MSG(true, "never printed");
}

// Two-node open corridor: drive one vehicle out so its slot is recycled,
// then address it through the stale generation.
struct RecycledWorld {
  roadnet::RoadNetwork net;
  std::unique_ptr<traffic::SimEngine> engine;
  traffic::VehicleId stale;
  traffic::VehicleId current;

  RecycledWorld() {
    roadnet::NetworkBuilder b;
    roadnet::RoadSpec rs;
    rs.lanes = 1;
    rs.speed_limit = 10.0;
    const NodeId a = b.add_intersection({0, 0});
    const NodeId c = b.add_intersection({120, 0});
    b.add_two_way(a, c, rs);
    const EdgeId gout = b.add_outbound_gateway(c, rs, 100.0);
    b.add_inbound_gateway(a, rs, 100.0);
    net = b.build();

    engine = std::make_unique<traffic::SimEngine>(net, traffic::SimConfig::simple_model());
    traffic::ExteriorAttributes attrs;
    const EdgeId ac = *net.edge_between(a, c);
    stale = engine->spawn_at(ac, 0, 100.0, attrs, traffic::Route{{gout}, 0, false});
    for (int i = 0; i < 300 && engine->alive_count() > 0; ++i) engine->step();
    current = engine->spawn_at(ac, 0, 50.0, attrs, traffic::Route{{gout}, 0, false});
  }
};

TEST(AssertDeath, StaleVehicleIdAbortsOnCheckedLookup) {
  RecycledWorld world;
  ASSERT_TRUE(world.stale.valid() && world.current.valid());
  ASSERT_EQ(world.current.slot(), world.stale.slot());  // the slot really was recycled
  ASSERT_NE(world.current, world.stale);

  // The unchecked accessor must abort on the stale generation...
  EXPECT_DEATH((void)world.engine->vehicle(world.stale),
               "stale vehicle id \\(slot recycled\\)");
  // ...and on an id that never existed; while the checked lookup returns
  // null for both instead of aliasing the new occupant.
  EXPECT_DEATH((void)world.engine->vehicle(traffic::VehicleId{}), "IVC_ASSERT failed");
  EXPECT_FALSE(world.engine->find_vehicle(world.stale).has_value());
  ASSERT_TRUE(world.engine->find_vehicle(world.current).has_value());
  EXPECT_EQ(world.engine->find_vehicle(world.current)->id(), world.current);
}

// The engine steps serially; a config asking for worker threads is a
// caller error, not a hint to ignore.
TEST(AssertDeath, EngineRejectsThreadsOtherThanOne) {
  roadnet::NetworkBuilder b;
  const NodeId a = b.add_intersection({0, 0});
  const NodeId c = b.add_intersection({120, 0});
  b.add_two_way(a, c, roadnet::RoadSpec{});
  const roadnet::RoadNetwork net = b.build();
  for (const int threads : {0, 4}) {
    traffic::SimConfig config;
    config.threads = threads;
    EXPECT_DEATH({ traffic::SimEngine engine(net, config); }, "SimConfig::threads must be 1");
  }
  traffic::SimConfig serial;
  traffic::SimEngine engine(net, serial);
  EXPECT_EQ(engine.step_count(), 0u);
}

}  // namespace
}  // namespace ivc

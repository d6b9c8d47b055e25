// SoA VehicleStore: row/slot consistency under growth and recycling, the
// reset-on-reuse contract (a bumped generation must never inherit the
// previous tenant's hot state), and the VehicleRef proxy mirroring the
// arrays it fronts.
#include <gtest/gtest.h>

#include "roadnet/builder.hpp"
#include "traffic/sim_engine.hpp"
#include "traffic/vehicle_store.hpp"

namespace ivc::traffic {
namespace {

using roadnet::EdgeId;
using roadnet::NodeId;
using roadnet::RoadNetwork;

ExteriorAttributes sedan() {
  ExteriorAttributes a;
  a.color = Color::Blue;
  a.type = BodyType::Sedan;
  return a;
}

TEST(VehicleStore, PushSlotGrowsEveryArrayInLockstep) {
  VehicleStore store;
  EXPECT_TRUE(store.rows_consistent());
  EXPECT_EQ(store.slot_count(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(store.push_slot(), i);
    ASSERT_TRUE(store.rows_consistent());
  }
  EXPECT_EQ(store.slot_count(), 5u);
  // Fresh rows carry spawn defaults.
  EXPECT_EQ(store.speed[4], 0.0);
  EXPECT_EQ(store.desired_speed_factor[4], 1.0);
  EXPECT_FALSE(store.edge[4].valid());
  EXPECT_FALSE(store.cold[4].alive);
}

TEST(VehicleStore, ResetSlotClearsPreviousTenant) {
  VehicleStore store;
  const std::uint32_t slot = store.push_slot();
  store.position[slot] = 123.0;
  store.speed[slot] = 9.0;
  store.lane_change_cooldown[slot] = 7;
  store.is_patrol[slot] = 1;
  store.cold[slot].alive = true;
  store.cold[slot].route.edges = {EdgeId{3}};
  store.cold[slot].rng_draws = 42;

  store.reset_slot(slot);
  EXPECT_TRUE(store.rows_consistent());
  EXPECT_EQ(store.position[slot], 0.0);
  EXPECT_EQ(store.speed[slot], 0.0);
  EXPECT_EQ(store.lane_change_cooldown[slot], 0);
  EXPECT_EQ(store.is_patrol[slot], 0);
  EXPECT_FALSE(store.cold[slot].alive);
  EXPECT_TRUE(store.cold[slot].route.edges.empty());
  EXPECT_EQ(store.cold[slot].rng_draws, 0u);
}

TEST(VehicleStore, DesiredSpeedScalesEdgeLimit) {
  VehicleStore store;
  const std::uint32_t slot = store.push_slot();
  store.desired_speed_factor[slot] = 1.2;
  EXPECT_DOUBLE_EQ(store.desired_speed(slot, 10.0), 12.0);
  const VehicleRef ref(store, slot);
  EXPECT_DOUBLE_EQ(ref.desired_speed(10.0), 12.0);
}

TEST(VehicleStore, VehicleRefMirrorsArrays) {
  VehicleStore store;
  const std::uint32_t slot = store.push_slot();
  store.position[slot] = 42.5;
  store.speed[slot] = 8.25;
  store.length[slot] = 4.5;
  store.edge[slot] = EdgeId{9};
  store.lane[slot] = 2;
  store.lane_change_cooldown[slot] = 3;
  store.is_patrol[slot] = 1;
  store.cold[slot].id = VehicleId{slot, 5};
  store.cold[slot].alive = true;
  store.cold[slot].entry_seq = 77;

  const VehicleRef ref(store, slot);
  EXPECT_EQ(ref.slot(), slot);
  EXPECT_EQ(ref.id(), (VehicleId{slot, 5}));
  EXPECT_TRUE(ref.alive());
  EXPECT_TRUE(ref.is_patrol());
  EXPECT_EQ(ref.edge(), EdgeId{9});
  EXPECT_EQ(ref.lane(), 2);
  EXPECT_DOUBLE_EQ(ref.position(), 42.5);
  EXPECT_DOUBLE_EQ(ref.speed(), 8.25);
  EXPECT_DOUBLE_EQ(ref.length(), 4.5);
  EXPECT_EQ(ref.lane_change_cooldown(), 3);
  EXPECT_EQ(ref.entry_seq(), 77u);
}

// Open two-node corridor where a vehicle drives out and despawns, freeing
// its slot for the next spawn.
struct Corridor {
  RoadNetwork net;
  EdgeId ac;
  EdgeId gout;

  Corridor() {
    roadnet::NetworkBuilder b;
    roadnet::RoadSpec rs;
    rs.lanes = 1;
    rs.speed_limit = 10.0;
    const NodeId a = b.add_intersection({0, 0});
    const NodeId c = b.add_intersection({120, 0});
    b.add_two_way(a, c, rs);
    gout = b.add_outbound_gateway(c, rs, 100.0);
    b.add_inbound_gateway(a, rs, 100.0);
    net = b.build();
    ac = *net.edge_between(a, c);
  }
};

TEST(VehicleStore, RecycledSlotStartsFromSpawnDefaults) {
  Corridor world;
  SimEngine engine(world.net, SimConfig::simple_model());
  const VehicleId first =
      engine.spawn_at(world.ac, 0, 100.0, sedan(), Route{{world.gout}, 0, false});
  ASSERT_TRUE(first.valid());

  // Let the first vehicle pick up speed and drive out.
  for (int i = 0; i < 300 && engine.alive_count() > 0; ++i) engine.step();
  ASSERT_EQ(engine.alive_count(), 0u);
  ASSERT_TRUE(engine.store().rows_consistent());

  const VehicleId second =
      engine.spawn_at(world.ac, 0, 50.0, sedan(), Route{{world.gout}, 0, false});
  ASSERT_TRUE(second.valid());
  ASSERT_EQ(second.slot(), first.slot());  // the slot really was recycled
  ASSERT_EQ(second.generation(), first.generation() + 1);

  // The new tenant starts from spawn state — nothing of the previous
  // generation's kinematics (it despawned at speed, past the segment end)
  // leaks through the recycled row.
  const VehicleRef veh = engine.vehicle(second);
  EXPECT_TRUE(veh.alive());
  EXPECT_DOUBLE_EQ(veh.position(), 50.0);
  EXPECT_DOUBLE_EQ(veh.speed(), 0.0);
  EXPECT_EQ(veh.lane_change_cooldown(), 0);
  EXPECT_EQ(veh.edge(), world.ac);
  // entry_seq counts every edge placement (spawns AND transits): first
  // spawn = 1, its transit onto the gateway = 2, this spawn = 3.
  EXPECT_EQ(veh.entry_seq(), 3u);
}

TEST(VehicleStore, RecyclingKeepsRowsConsistentWithAliveIndex) {
  Corridor world;
  SimEngine engine(world.net, SimConfig::simple_model());
  // Churn the single slot through several generations while checking the
  // store and the dense alive index against each other every step.
  VehicleId last;
  for (int round = 0; round < 4; ++round) {
    last = engine.spawn_at(world.ac, 0, 80.0, sedan(), Route{{world.gout}, 0, false});
    ASSERT_TRUE(last.valid());
    for (int i = 0; i < 300 && engine.alive_count() > 0; ++i) {
      engine.step();
      ASSERT_TRUE(engine.store().rows_consistent());
      // Every alive id resolves to an alive record on the slot it names,
      // and the alive scan over cold records matches the index size.
      std::size_t alive_scan = 0;
      for (const VehicleCold& cold : engine.store().cold) {
        if (cold.alive) ++alive_scan;
      }
      ASSERT_EQ(alive_scan, engine.alive_count());
      for (const VehicleId id : engine.alive_vehicles()) {
        ASSERT_TRUE(engine.vehicle(id).alive());
        ASSERT_EQ(engine.vehicle(id).id(), id);
      }
    }
    ASSERT_EQ(engine.alive_count(), 0u);
  }
  // One slot served all four generations.
  EXPECT_EQ(engine.vehicle_slot_count(), 1u);
  EXPECT_EQ(last.generation(), 3u);
  EXPECT_EQ(engine.total_spawned(), 4u);
}

}  // namespace
}  // namespace ivc::traffic

// Open-system counting (Alg. 5, Corollaries 1 & 2): complete status and
// live-population tracking with continuous border flows.
#include <gtest/gtest.h>

#include <ostream>

#include "counting_test_helpers.hpp"

namespace ivc::counting {
namespace {

using ivc::testing::World;
using ivc::testing::WorldConfig;
using roadnet::NodeId;

roadnet::RoadNetwork open_grid(int streets, int avenues, int stride) {
  roadnet::ManhattanConfig mc;
  mc.streets = streets;
  mc.avenues = avenues;
  mc.gateway_stride = stride;
  return make_manhattan_grid(mc);
}

struct OpenCase {
  const char* name;
  double loss;
  std::size_t vehicles;
  std::size_t seeds;
  std::uint64_t rng;
};

// gtest prints the case (and gtest_discover_tests puts that print into the
// ctest name) by its name, not by its raw bytes, which hold a pointer.
void PrintTo(const OpenCase& c, std::ostream* os) { *os << c.name; }

class OpenSystemTest : public ::testing::TestWithParam<OpenCase> {};

TEST_P(OpenSystemTest, CompleteStatusTracksLivePopulation) {
  const auto param = GetParam();
  ProtocolConfig pc;
  pc.channel_loss = param.loss;
  WorldConfig wc{open_grid(6, 5, 3), traffic::SimConfig{}, pc, param.vehicles,
                 param.rng};
  wc.sim.seed = param.rng;
  World world(std::move(wc));
  auto& protocol = world.protocol();
  ASSERT_TRUE(protocol.config().open_system) << "gateways must force open mode";
  protocol.designate_seeds(protocol.choose_random_seeds(param.seeds));
  protocol.start();

  // Corollary 1: the complete status is reached.
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); },
                              180.0))
      << protocol.debug_collection_state();

  // Corollary 2 / Def. 1: from the complete status on, the summed local
  // views track the countable population *continuously*, including new
  // arrivals and departures. Check repeatedly while traffic keeps flowing.
  for (int probe = 0; probe < 12; ++probe) {
    for (int i = 0; i < 40; ++i) {
      world.demand().update();
      world.engine().step();
    }
    if (!protocol.quiescent()) continue;  // markers of late activations in flight
    EXPECT_EQ(protocol.live_total(), world.oracle().true_population())
        << "probe " << probe;
  }
  EXPECT_GT(protocol.stats().interaction_entries, 0u);
  EXPECT_GT(protocol.stats().interaction_exits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Flows, OpenSystemTest,
    ::testing::Values(OpenCase{"lossless", 0.0, 150, 1, 1},
                      OpenCase{"paper_loss30", 0.30, 150, 1, 2},
                      OpenCase{"loss30_multiseed", 0.30, 150, 4, 3},
                      OpenCase{"sparse", 0.30, 40, 1, 4},
                      OpenCase{"dense", 0.30, 350, 2, 5}),
    [](const auto& info) { return info.param.name; });

TEST(OpenSystem, CollectionDeliversSnapshotToSeeds) {
  ProtocolConfig pc;
  pc.channel_loss = 0.3;
  WorldConfig wc{open_grid(5, 5, 3), traffic::SimConfig{}, pc, 200, 7};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds(protocol.choose_random_seeds(2));
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(180.0)) << protocol.debug_collection_state();
  // The collected value is a sum of per-checkpoint snapshots taken at
  // their report times; with interaction counters still ticking it need
  // not equal the *current* population, but it must equal the sum the
  // tree actually reported and be positive.
  EXPECT_GT(protocol.collected_total(), 0);
  EXPECT_TRUE(protocol.collection_complete());
}

TEST(OpenSystem, BorderCheckpointsKeepInteractionCountingForever) {
  ProtocolConfig pc;
  WorldConfig wc{open_grid(4, 4, 2), traffic::SimConfig{}, pc, 80, 8};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable(); }, 120.0));
  const auto in_before = protocol.stats().interaction_entries;
  // Interaction counting never stops: more entries accumulate after
  // stability (Alg. 5: "remain active for any possible vehicle").
  for (int i = 0; i < 1200; ++i) {
    world.demand().update();
    world.engine().step();
  }
  EXPECT_GT(protocol.stats().interaction_entries, in_before);
  EXPECT_TRUE(protocol.all_stable());  // interaction does not affect stability
}

TEST(OpenSystem, UncountedEscapeesNetToZero) {
  // Vehicles that leave through a border checkpoint before the wave arrives
  // must not distort the total (Cor. 2). Use a slow single seed far from
  // the border and heavy through traffic.
  ProtocolConfig pc;
  pc.channel_loss = 0.3;
  WorldConfig wc{open_grid(7, 5, 2), traffic::SimConfig{}, pc, 250, 9};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  // Center-ish seed: wave reaches the border last.
  protocol.designate_seeds({NodeId{17}});
  protocol.start();
  ASSERT_TRUE(
      world.run_until([&] { return protocol.all_stable() && protocol.quiescent(); }, 180.0))
      << protocol.debug_collection_state();
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
  EXPECT_GT(world.engine().total_spawned(), wc.vehicles);  // arrivals happened
}

TEST(OpenSystem, DrainedRegionCountsToZero) {
  // Stop all arrivals: the region eventually empties and the protocol's
  // live total follows it down to zero.
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 4;
  mc.gateway_stride = 1;  // exits everywhere
  ProtocolConfig pc;
  WorldConfig wc{make_manhattan_grid(mc), traffic::SimConfig{}, pc, 60, 10};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable(); }, 120.0));
  // Let vehicles drain without replacement (bypass demand.update()).
  auto& engine = world.engine();
  const auto deadline = engine.now() + util::SimTime::from_minutes(240.0);
  while (engine.population_inside() > 0 && engine.now() < deadline) engine.step();
  EXPECT_EQ(engine.population_inside(), 0u);
  ASSERT_TRUE(protocol.quiescent());
  EXPECT_EQ(protocol.live_total(), 0);
  EXPECT_EQ(world.oracle().true_population(), 0);
}

}  // namespace
}  // namespace ivc::counting

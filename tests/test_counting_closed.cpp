// Closed-system counting correctness — Theorems 1 & 2 as executable
// properties, across topologies, volumes, seed counts and channel loss.
#include <gtest/gtest.h>

#include <ostream>

#include "counting_test_helpers.hpp"

namespace ivc::counting {
namespace {

using ivc::testing::World;
using ivc::testing::WorldConfig;
using roadnet::NodeId;

// ---------- Theorem 1: lossless FIFO -> per-vehicle exactly-once ------------

struct LosslessCase {
  const char* name;
  int topology;  // 0 = triangle, 1 = ring, 2 = one-way ring, 3 = grid
  std::size_t vehicles;
  std::size_t seeds;
  std::uint64_t rng;
};

roadnet::RoadNetwork make_topology(int topology) {
  switch (topology) {
    case 0: return roadnet::make_triangle();
    case 1: return roadnet::make_ring(8, 180.0);
    case 2: return roadnet::make_one_way_ring(6, 180.0);
    default: {
      roadnet::ManhattanConfig mc;
      mc.streets = 5;
      mc.avenues = 4;
      mc.street_lanes = 1;  // strictly FIFO simple model
      mc.avenue_lanes = 1;
      mc.with_roundabout = false;
      return roadnet::make_manhattan_grid(mc);
    }
  }
}

// gtest prints the case (and gtest_discover_tests puts that print into the
// ctest name) by its name, not by its raw bytes, which hold a pointer.
void PrintTo(const LosslessCase& c, std::ostream* os) { *os << c.name; }

class LosslessClosedTest : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessClosedTest, ExactlyOnceAndTotalExact) {
  const auto param = GetParam();
  WorldConfig wc{make_topology(param.topology), traffic::SimConfig::simple_model(),
                 ProtocolConfig{}, param.vehicles, param.rng};
  wc.sim.seed = param.rng;
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds(protocol.choose_random_seeds(param.seeds));
  protocol.start();

  ASSERT_TRUE(world.run_to_convergence(200.0)) << "did not converge: "
                                          << protocol.debug_collection_state();
  // Theorem 1: zero mis-counting, zero double-counting.
  const auto once = world.oracle().verify_exactly_once();
  EXPECT_TRUE(once.ok) << once.detail;
  EXPECT_EQ(world.oracle().double_counted_vehicles(), 0u);
  // Local views sum to the true population.
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
  // Alg. 2: the seeds' collected global view agrees.
  EXPECT_EQ(protocol.collected_total(), protocol.live_total());
  // No compensation machinery should have fired in the lossless FIFO model.
  EXPECT_EQ(protocol.stats().label_handoff_failures, 0u);
  for (const auto& cp : protocol.checkpoints()) {
    EXPECT_EQ(cp.loss_adjust(), 0);
    EXPECT_EQ(cp.overtake_adjust(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, LosslessClosedTest,
    ::testing::Values(LosslessCase{"triangle", 0, 12, 1, 1},
                      LosslessCase{"triangle_many", 0, 40, 1, 2},
                      LosslessCase{"ring", 1, 60, 1, 3},
                      LosslessCase{"ring_two_seeds", 1, 60, 2, 4},
                      LosslessCase{"one_way_ring", 2, 30, 1, 5},
                      LosslessCase{"grid", 3, 120, 1, 6},
                      LosslessCase{"grid_multi_seed", 3, 120, 4, 7},
                      LosslessCase{"grid_sparse", 3, 30, 1, 8},
                      LosslessCase{"grid_dense", 3, 200, 2, 9}),
    [](const auto& info) { return info.param.name; });

// ---------- Theorem 2: lossy + overtakes -> total exactness ----------------

struct LossyCase {
  const char* name;
  double loss;
  std::size_t vehicles;
  std::size_t seeds;
  std::uint64_t rng;
};

void PrintTo(const LossyCase& c, std::ostream* os) { *os << c.name; }

class LossyClosedTest : public ::testing::TestWithParam<LossyCase> {};

TEST_P(LossyClosedTest, TotalExactUnderLossAndOvertakes) {
  const auto param = GetParam();
  roadnet::ManhattanConfig mc;
  mc.streets = 6;
  mc.avenues = 4;  // multi-lane avenues -> real overtakes
  ProtocolConfig pc;
  pc.channel_loss = param.loss;
  WorldConfig wc{roadnet::make_manhattan_grid(mc), traffic::SimConfig{}, pc,
                 param.vehicles, param.rng};
  wc.sim.seed = param.rng;
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds(protocol.choose_random_seeds(param.seeds));
  protocol.start();

  ASSERT_TRUE(world.run_to_convergence(180.0))
      << protocol.debug_collection_state();
  // Theorem 2: the total is exact even though individual vehicles may have
  // been double-counted and compensated.
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population())
      << "adjustments: " << world.oracle().adjustment_sum();
  EXPECT_EQ(protocol.collected_total(), protocol.live_total());
  if (param.loss > 0.0) {
    // The compensation machinery must actually have been exercised.
    EXPECT_GT(protocol.stats().label_handoff_failures, 0u);
  }
  // "Every exchange is counted": attempt statistics hold on lossless runs
  // too — call sites route pickups through the channel instead of
  // short-circuiting on the loss probability.
  EXPECT_GT(protocol.channel().attempts(), 0u);
  if (param.loss == 0.0) {
    EXPECT_EQ(protocol.channel().failures(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossLevels, LossyClosedTest,
    ::testing::Values(LossyCase{"no_loss_with_lanes", 0.0, 200, 1, 11},
                      LossyCase{"loss10", 0.10, 200, 1, 12},
                      LossyCase{"loss30_paper", 0.30, 200, 1, 13},
                      LossyCase{"loss30_multiseed", 0.30, 200, 5, 14},
                      LossyCase{"loss50", 0.50, 200, 2, 15},
                      LossyCase{"loss30_dense", 0.30, 400, 3, 16},
                      LossyCase{"loss30_sparse", 0.30, 60, 1, 17}),
    [](const auto& info) { return info.param.name; });

// ---------- Structural properties -------------------------------------------

TEST(ClosedCounting, SpanningForestHasOneTreePerSeed) {
  roadnet::ManhattanConfig mc;
  mc.streets = 5;
  mc.avenues = 5;
  WorldConfig wc{roadnet::make_manhattan_grid(mc), traffic::SimConfig{},
                 ProtocolConfig{}, 150, 21};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds(protocol.choose_random_seeds(3));
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence());

  // Every non-seed checkpoint has exactly one parent reachable back to a
  // seed; seeds have none.
  for (const auto& cp : protocol.checkpoints()) {
    if (cp.is_seed()) {
      EXPECT_FALSE(cp.parent().valid());
      continue;
    }
    ASSERT_TRUE(cp.parent().valid());
    // Follow parents to a seed without cycles.
    NodeId cur = cp.node();
    std::size_t hops = 0;
    while (!protocol.checkpoint(cur).is_seed()) {
      cur = protocol.checkpoint(cur).parent();
      ASSERT_TRUE(cur.valid());
      ASSERT_LT(++hops, protocol.checkpoints().size());
    }
  }
  // Tree totals partition the global count.
  std::int64_t forest_total = 0;
  for (const NodeId seed : protocol.seeds()) {
    forest_total += protocol.checkpoint(seed).subtree_total();
  }
  EXPECT_EQ(forest_total, protocol.live_total());
}

TEST(ClosedCounting, MarkerInvariants) {
  roadnet::ManhattanConfig mc;
  mc.streets = 4;
  mc.avenues = 4;
  ProtocolConfig pc;
  pc.channel_loss = 0.3;
  WorldConfig wc{roadnet::make_manhattan_grid(mc), traffic::SimConfig{}, pc, 120, 22};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_to_convergence(180.0));

  const auto& stats = protocol.stats();
  // Exactly one marker per interior directed edge was issued and consumed.
  EXPECT_EQ(stats.labels_issued, world.net().num_interior_segments());
  EXPECT_EQ(stats.markers_consumed, stats.labels_issued);
  // Each activation was triggered by a marker; seeds self-activate.
  EXPECT_EQ(stats.activations_by_label + protocol.seeds().size(),
            protocol.checkpoints().size());
  // Every direction ended Stopped or Excluded, never Counting/Idle.
  for (const auto& cp : protocol.checkpoints()) {
    for (const auto& dir : cp.inbound()) {
      EXPECT_TRUE(dir.state == DirectionState::Stopped ||
                  dir.state == DirectionState::Excluded);
    }
  }
}

TEST(ClosedCounting, DeterministicEndToEnd) {
  auto run = [] {
    roadnet::ManhattanConfig mc;
    mc.streets = 4;
    mc.avenues = 4;
    ProtocolConfig pc;
    pc.channel_loss = 0.3;
    WorldConfig wc{roadnet::make_manhattan_grid(mc), traffic::SimConfig{}, pc, 100, 33};
    World world(std::move(wc));
    auto& protocol = world.protocol();
    protocol.designate_seeds(protocol.choose_random_seeds(2));
    protocol.start();
    world.run_to_convergence(180.0);
    std::vector<std::int64_t> counters;
    for (const auto& cp : protocol.checkpoints()) counters.push_back(cp.local_total());
    counters.push_back(protocol.live_total());
    counters.push_back(static_cast<std::int64_t>(protocol.stats().labels_issued));
    counters.push_back(static_cast<std::int64_t>(protocol.stats().count_events));
    return counters;
  };
  EXPECT_EQ(run(), run());
}

TEST(ClosedCounting, CountingWithoutCollectionStillStabilizes) {
  ProtocolConfig pc;
  pc.collection = false;
  WorldConfig wc{roadnet::make_ring(6, 150.0), traffic::SimConfig::simple_model(), pc,
                 50, 44};
  World world(std::move(wc));
  auto& protocol = world.protocol();
  protocol.designate_seeds({NodeId{0}});
  protocol.start();
  ASSERT_TRUE(world.run_until([&] { return protocol.all_stable(); }));
  EXPECT_FALSE(protocol.collection_complete());
  EXPECT_EQ(protocol.live_total(), world.oracle().true_population());
  EXPECT_EQ(protocol.stats().messages_sent, 0u);
}

TEST(ClosedCounting, SeedsChosenRandomlyAreDistinct) {
  WorldConfig wc{roadnet::make_ring(10), traffic::SimConfig{}, ProtocolConfig{}, 20, 55};
  World world(std::move(wc));
  const auto seeds = world.protocol().choose_random_seeds(10);
  std::set<std::uint32_t> unique;
  for (const NodeId s : seeds) unique.insert(s.value());
  EXPECT_EQ(unique.size(), 10u);
}

}  // namespace
}  // namespace ivc::counting

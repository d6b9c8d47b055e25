// Scenario registry: catalogue integrity plus an end-to-end smoke sweep of
// every named scenario (each zoo topology runs the full protocol and must
// produce an exact count).
#include <gtest/gtest.h>

#include <set>

#include "experiment/registry.hpp"
#include "roadnet/graph.hpp"

namespace ivc::experiment {
namespace {

TEST(Registry, BuiltinCatalogueShape) {
  const auto& registry = ScenarioRegistry::builtin();
  EXPECT_GE(registry.entries().size(), 10u);

  std::set<std::string> names;
  std::set<std::string> topologies;
  for (const auto& entry : registry.entries()) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.description.empty());
    EXPECT_NE(entry.make, nullptr);
    names.insert(entry.name);
    topologies.insert(entry.topology);
  }
  EXPECT_EQ(names.size(), registry.entries().size()) << "names must be unique";
  // The zoo beyond the paper's grid: at least 4 non-manhattan topologies.
  topologies.erase("manhattan");
  EXPECT_GE(topologies.size(), 4u);
}

TEST(Registry, FindByName) {
  const auto& registry = ScenarioRegistry::builtin();
  const NamedScenario* entry = registry.find("ring-radial-closed-steady");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->topology, "ring-radial");
  EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
}

TEST(Registry, AddRejectsNothingAndFindsIt) {
  ScenarioRegistry registry;
  registry.add({"custom", "manhattan", "steady", "a custom entry",
                [](ScenarioScale) { return ScenarioConfig{}; }});
  EXPECT_NE(registry.find("custom"), nullptr);
}

TEST(Registry, EveryFactoryBuildsAStronglyConnectedMap) {
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    for (const ScenarioScale scale : {ScenarioScale::Full, ScenarioScale::Smoke}) {
      const ScenarioConfig config = entry.make(scale);
      SCOPED_TRACE(entry.name);
      EXPECT_GT(config.vehicles_at_100pct, 0u);
      EXPECT_GT(config.time_limit_minutes, 0.0);
      const roadnet::RoadNetwork net = build_network(config);
      EXPECT_GE(net.num_intersections(), 3u);
      EXPECT_TRUE(roadnet::is_strongly_connected(net));
      EXPECT_EQ(net.is_open_system(), config.mode == SystemMode::Open);
    }
  }
}

TEST(Registry, SmokeScaleIsSmallerThanFull) {
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    SCOPED_TRACE(entry.name);
    const ScenarioConfig full = entry.make(ScenarioScale::Full);
    const ScenarioConfig smoke = entry.make(ScenarioScale::Smoke);
    EXPECT_LT(smoke.vehicles_at_100pct, full.vehicles_at_100pct);
  }
}

// The satellite acceptance check: a smoke run of every named scenario
// completes end-to-end with an exact count. One (volume, seeds) point per
// scenario keeps the whole suite inside a few seconds.
TEST(Registry, SmokeRunOfEveryScenarioCountsExactly) {
  for (const auto& entry : ScenarioRegistry::builtin().entries()) {
    SCOPED_TRACE(entry.name);
    ScenarioConfig config = entry.make(ScenarioScale::Smoke);
    config.num_seeds = 1;
    config.seed = 2014;
    const RunMetrics metrics = run_scenario(config);
    EXPECT_TRUE(metrics.constitution_converged);
    EXPECT_TRUE(metrics.total_exact)
        << "protocol=" << metrics.protocol_total << " truth=" << metrics.truth;
    EXPECT_GT(metrics.population, 0u);
    EXPECT_GT(metrics.checkpoints, 0u);
  }
}

}  // namespace
}  // namespace ivc::experiment

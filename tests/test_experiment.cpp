// Experiment harness: scenario runner, parallel sweeps, figure formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>

#include "experiment/figure.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"

namespace ivc::experiment {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig config;
  config.map.streets = 4;
  config.map.avenues = 4;
  config.vehicles_at_100pct = 160;
  config.arrival_rate_at_100pct = 0.4;
  config.volume_pct = 75.0;
  config.num_seeds = 1;
  config.protocol.channel_loss = 0.30;
  config.time_limit_minutes = 180.0;
  config.seed = 9;
  return config;
}

TEST(Scenario, ClosedRunConvergesAndIsExact) {
  const RunMetrics m = run_scenario(tiny_config());
  EXPECT_TRUE(m.constitution_converged);
  EXPECT_TRUE(m.collection_converged);
  EXPECT_TRUE(m.quiescent);
  EXPECT_TRUE(m.total_exact);
  EXPECT_EQ(m.protocol_total, m.truth);
  EXPECT_EQ(m.collected_total, m.truth);
  EXPECT_GT(m.constitution_avg_min, 0.0);
  EXPECT_GE(m.constitution_max_min, m.constitution_avg_min);
  EXPECT_GE(m.constitution_avg_min, m.constitution_min_min);
  EXPECT_GE(m.collection_max_min, m.constitution_max_min);
  EXPECT_EQ(m.checkpoints, 16u);
}

TEST(Scenario, OpenRunConverges) {
  ScenarioConfig config = tiny_config();
  config.mode = SystemMode::Open;
  config.gateway_stride = 3;
  const RunMetrics m = run_scenario(config);
  EXPECT_TRUE(m.constitution_converged);
  EXPECT_TRUE(m.total_exact);
  EXPECT_GT(m.protocol_stats.interaction_entries, 0u);
}

TEST(Scenario, DeterministicAcrossCalls) {
  const RunMetrics a = run_scenario(tiny_config());
  const RunMetrics b = run_scenario(tiny_config());
  EXPECT_EQ(a.protocol_total, b.protocol_total);
  EXPECT_DOUBLE_EQ(a.constitution_avg_min, b.constitution_avg_min);
  EXPECT_DOUBLE_EQ(a.collection_max_min, b.collection_max_min);
  EXPECT_EQ(a.protocol_stats.labels_issued, b.protocol_stats.labels_issued);
}

TEST(Scenario, LosslessSimpleModelIsExactlyOnce) {
  ScenarioConfig config = tiny_config();
  config.protocol.channel_loss = 0.0;
  config.sim = traffic::SimConfig::simple_model();
  config.map.street_lanes = 1;
  config.map.avenue_lanes = 1;
  config.map.with_roundabout = false;
  const RunMetrics m = run_scenario(config);
  EXPECT_TRUE(m.constitution_converged);
  EXPECT_TRUE(m.exactly_once);
  EXPECT_EQ(m.double_counted, 0u);
}

TEST(Sweep, GridShapeAndAveraging) {
  SweepConfig sweep;
  sweep.volumes_pct = {50, 100};
  sweep.seed_counts = {1, 2};
  sweep.replicas = 2;
  sweep.base = tiny_config();
  sweep.threads = 2;
  const auto cells = run_sweep(sweep);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.replicas, 2);
    EXPECT_TRUE(cell.constitution_converged);
    EXPECT_TRUE(cell.collection_converged);
    EXPECT_TRUE(cell.all_exact);
    EXPECT_EQ(cell.total_protocol, cell.total_truth);
    EXPECT_GT(cell.constitution_avg_min, 0.0);
  }
  // Grid ordering: volume-major, matching the figure layout.
  EXPECT_DOUBLE_EQ(cells[0].volume_pct, 50);
  EXPECT_EQ(cells[0].num_seeds, 1);
  EXPECT_DOUBLE_EQ(cells[3].volume_pct, 100);
  EXPECT_EQ(cells[3].num_seeds, 2);
}

TEST(Sweep, DeterministicRegardlessOfThreads) {
  SweepConfig sweep;
  sweep.volumes_pct = {60};
  sweep.seed_counts = {1, 3};
  sweep.replicas = 1;
  sweep.base = tiny_config();
  sweep.threads = 1;
  const auto serial = run_sweep(sweep);
  sweep.threads = 2;
  const auto parallel = run_sweep(sweep);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].constitution_avg_min, parallel[i].constitution_avg_min);
    EXPECT_EQ(serial[i].total_protocol, parallel[i].total_protocol);
  }
}

TEST(Sweep, ByteIdenticalTablesAcrossInvocations) {
  // Replica metrics are reduced in fixed (cell, replica) order after the
  // pool drains — never in thread-completion order, where running means
  // over doubles would differ run to run. Two identical invocations must
  // produce byte-identical cell tables (exact float equality, not
  // near-equality). Replicas > 1 are essential: a single replica hides any
  // order dependence in the reduction.
  SweepConfig sweep;
  sweep.volumes_pct = {40, 80};
  sweep.seed_counts = {1, 2};
  sweep.replicas = 3;
  sweep.base = tiny_config();
  sweep.base.time_limit_minutes = 90.0;
  sweep.threads = 4;  // more workers than cores: completion order scrambles
  const auto a = run_sweep(sweep);
  const auto b = run_sweep(sweep);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].volume_pct, b[i].volume_pct);
    EXPECT_EQ(a[i].num_seeds, b[i].num_seeds);
    EXPECT_EQ(a[i].replicas, b[i].replicas);
    // Bitwise-equal floats: the byte-identical-tables contract.
    EXPECT_EQ(a[i].constitution_max_min, b[i].constitution_max_min);
    EXPECT_EQ(a[i].constitution_min_min, b[i].constitution_min_min);
    EXPECT_EQ(a[i].constitution_avg_min, b[i].constitution_avg_min);
    EXPECT_EQ(a[i].collection_max_min, b[i].collection_max_min);
    EXPECT_EQ(a[i].collection_min_min, b[i].collection_min_min);
    EXPECT_EQ(a[i].collection_avg_min, b[i].collection_avg_min);
    EXPECT_EQ(a[i].time_all_active_min, b[i].time_all_active_min);
    EXPECT_EQ(a[i].total_truth, b[i].total_truth);
    EXPECT_EQ(a[i].total_protocol, b[i].total_protocol);
    EXPECT_EQ(a[i].constitution_converged, b[i].constitution_converged);
    EXPECT_EQ(a[i].collection_converged, b[i].collection_converged);
    EXPECT_EQ(a[i].all_exact, b[i].all_exact);
    // wall_seconds is wall-clock and legitimately differs between runs.
  }
}

TEST(Sweep, ProgressCallbackCoversAllJobs) {
  SweepConfig sweep;
  sweep.volumes_pct = {80};
  sweep.seed_counts = {1};
  sweep.replicas = 3;
  sweep.base = tiny_config();
  // Progress arrives on pool threads, possibly concurrently.
  std::mutex mutex;
  std::size_t last_done = 0, total = 0;
  const auto cells = run_sweep(sweep, [&](std::size_t done, std::size_t all) {
    const std::lock_guard<std::mutex> lock(mutex);
    last_done = std::max(last_done, done);
    total = all;
  });
  EXPECT_EQ(cells.size(), 1u);
  EXPECT_EQ(last_done, 3u);
  EXPECT_EQ(total, 3u);
}

TEST(Figure, TablePrintsEveryCell) {
  SweepCell cell;
  cell.volume_pct = 50;
  cell.num_seeds = 4;
  cell.constitution_max_min = 12.5;
  cell.constitution_min_min = 1.25;
  cell.constitution_avg_min = 6.0;
  cell.constitution_converged = true;
  cell.collection_converged = true;
  cell.all_exact = true;
  std::ostringstream out;
  print_figure_table(out, "Fig. 2 reproduction", {cell}, FigureKind::Constitution);
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig. 2 reproduction"), std::string::npos);
  EXPECT_NE(text.find("12.50"), std::string::npos);
  EXPECT_NE(text.find("6.00"), std::string::npos);
  EXPECT_NE(text.find("yes"), std::string::npos);
}

TEST(Figure, CsvMatchesPanels) {
  SweepCell cell;
  cell.volume_pct = 10;
  cell.num_seeds = 2;
  cell.collection_max_min = 30.0;
  cell.collection_min_min = 10.0;
  cell.collection_avg_min = 20.0;
  std::ostringstream out;
  print_figure_csv(out, {cell}, FigureKind::Collection);
  EXPECT_NE(out.str().find("30.0000"), std::string::npos);
  EXPECT_NE(out.str().find("volume_pct"), std::string::npos);
}

TEST(Figure, SpeedupSummaryComputesImprovement) {
  SweepCell before;
  before.constitution_avg_min = 10.0;
  SweepCell after = before;
  after.constitution_avg_min = 6.0;  // 40% quicker
  const auto summary =
      summarize_speedup({before}, {after}, FigureKind::Constitution);
  EXPECT_NEAR(summary.avg_improvement_pct, 40.0, 1e-9);
  EXPECT_NEAR(summary.min_improvement_pct, 40.0, 1e-9);
}

TEST(Scenario, DescribeMentionsKeyParameters) {
  const auto desc = tiny_config().describe();
  EXPECT_NE(desc.find("closed"), std::string::npos);
  EXPECT_NE(desc.find("75"), std::string::npos);
  EXPECT_NE(desc.find("loss=30"), std::string::npos);
}

}  // namespace
}  // namespace ivc::experiment

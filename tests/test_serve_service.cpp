// Counting-service query front-end under concurrency.
//
// The seqlock test hammers PublishedCounts with one writer and several
// readers. Each publish rewrites a rotating subset of cells (or, every
// few publishes, only the status) and sets the live total to the sum of
// all cells, so a read that mixes two publishes fails the sum — and every
// field is a fixed function of the step, so the reader can check the
// whole view exactly, including cells the back table had to catch up on. The service tests then run the
// real thing: a stepping thread plus concurrent query threads over a live
// scenario, a world stepped by hand whose dirty-cell publishes must add up
// to the full-scan view after every step, and a stepping thread that
// throws. CI runs the PublishedCountsTest and CountingServiceTest entries
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/registry.hpp"
#include "serve/service.hpp"

namespace ivc::serve {
namespace {

experiment::ScenarioConfig small_closed_config() {
  experiment::ScenarioConfig config;
  config.map.streets = 5;
  config.map.avenues = 4;
  config.mode = experiment::SystemMode::Closed;
  config.volume_pct = 60.0;
  config.vehicles_at_100pct = 80;
  config.num_seeds = 1;
  config.time_limit_minutes = 5.0;
  config.seed = 77;
  return config;
}

std::int64_t cell_sum(const ServiceView& view) {
  std::int64_t sum = 0;
  for (const CheckpointCounts& cp : view.checkpoints) sum += cp.local_total;
  return sum;
}

// ---- seqlock under partial publishes -------------------------------------------

constexpr std::size_t kCells = 12;
constexpr std::uint64_t kRotation = 3;
constexpr std::uint64_t kStatusOnlyEvery = 4;

// Publish 0 writes every cell; publish p > 0 rewrites the cells with
// (i + p) % kRotation == 0, except that every kStatusOnlyEvery-th publish
// changes only the status.
bool rewrites(std::size_t i, std::uint64_t p) {
  return p == 0 || (p % kStatusOnlyEvery != 0 && (i + p) % kRotation == 0);
}

// The publish that last wrote cell i as of publish `step`.
std::uint64_t last_write(std::size_t i, std::uint64_t step) {
  for (std::uint64_t p = step; p > 0; --p) {
    if (rewrites(i, p)) return p;
  }
  return 0;
}

// A cell's value encodes the publish that wrote it, so every rewrite
// changes it, and its flags are functions of that value.
CheckpointCounts cell_value(std::size_t i, std::uint64_t publish) {
  const auto v = static_cast<std::int64_t>(publish * kCells + i + 1);
  return CheckpointCounts{v, v % 2 == 0, v % 5 == 0};
}

ServiceStatus status_at(std::uint64_t step) {
  ServiceStatus status;
  status.step = step;
  status.now_millis = static_cast<std::int64_t>(step * 7 + 1);
  status.truth = static_cast<std::int64_t>(step * 3 + 2);
  status.all_stable = (step % 2) == 0;
  status.quiescent = (step % 3) == 0;
  for (std::size_t i = 0; i < kCells; ++i) {
    status.live_total += cell_value(i, last_write(i, step)).local_total;
  }
  return status;
}

bool view_matches_step(const ServiceView& view) {
  const ServiceStatus want = status_at(view.step);
  if (view.now_millis != want.now_millis || view.live_total != want.live_total ||
      view.truth != want.truth || view.all_stable != want.all_stable ||
      view.quiescent != want.quiescent || view.checkpoints.size() != kCells) {
    return false;
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    const CheckpointCounts cell = cell_value(i, last_write(i, view.step));
    if (view.checkpoints[i].local_total != cell.local_total ||
        view.checkpoints[i].active != cell.active ||
        view.checkpoints[i].stable != cell.stable) {
      return false;
    }
  }
  return true;
}

TEST(PublishedCountsTest, SeqlockReadsAreNeverTornUnderContention) {
  constexpr std::uint64_t kPublishes = 20000;
  PublishedCounts counts;
  counts.init(kCells);
  std::vector<CellUpdate> updates;
  for (std::size_t i = 0; i < kCells; ++i) {
    updates.push_back({static_cast<std::uint32_t>(i), cell_value(i, 0)});
  }
  counts.publish(status_at(0), updates);

  std::atomic<bool> done{false};
  std::atomic<int> torn_sum{0};
  std::atomic<int> torn{0};
  std::atomic<int> regressed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_step = 0;
      std::uint64_t reads = 0;
      while (!done.load(std::memory_order_acquire) || reads < 100) {
        const ServiceView view = counts.read();
        ++reads;
        if (view.step < last_step) regressed.fetch_add(1);
        last_step = view.step;
        if (cell_sum(view) != view.live_total) torn_sum.fetch_add(1);
        if (!view_matches_step(view)) torn.fetch_add(1);
      }
    });
  }
  for (std::uint64_t step = 1; step <= kPublishes; ++step) {
    updates.clear();
    for (std::size_t i = 0; i < kCells; ++i) {
      if (rewrites(i, step)) {
        updates.push_back({static_cast<std::uint32_t>(i), cell_value(i, step)});
      }
    }
    counts.publish(status_at(step), updates);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn_sum.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(regressed.load(), 0);
  EXPECT_TRUE(view_matches_step(counts.read()));
  EXPECT_EQ(counts.read().step, kPublishes);
}

// Each cell is stored packed; negative totals, both flags and the extremes
// of the packed range come back unchanged.
TEST(PublishedCountsTest, CellsRoundTripSignedTotalsAndFlags) {
  constexpr std::int64_t kLimit = std::int64_t{1} << 61;
  const std::vector<CellUpdate> updates = {{0, {-5, true, false}},
                                           {1, {0, false, true}},
                                           {2, {kLimit - 1, true, true}},
                                           {3, {-kLimit, false, false}}};
  PublishedCounts counts;
  counts.init(updates.size());
  ServiceStatus status;
  status.step = 1;
  counts.publish(status, updates);
  const ServiceView view = counts.read();
  ASSERT_EQ(view.checkpoints.size(), updates.size());
  for (const CellUpdate& update : updates) {
    const CheckpointCounts& cell = view.checkpoints[update.index];
    EXPECT_EQ(cell.local_total, update.counts.local_total) << "cell " << update.index;
    EXPECT_EQ(cell.active, update.counts.active) << "cell " << update.index;
    EXPECT_EQ(cell.stable, update.counts.stable) << "cell " << update.index;
  }
}

// ---- the counting service -------------------------------------------------------

TEST(CountingServiceTest, QueryBeforeStartIsSafeAndEmpty) {
  CountingService service(small_closed_config());
  const ServiceView view = service.query();
  EXPECT_EQ(view.step, 0u);
  EXPECT_FALSE(view.finished);
  EXPECT_FALSE(service.finished());
}

TEST(CountingServiceTest, ConcurrentQueriesSeeMonotonicConsistentViews) {
  CountingService service(small_closed_config());
  const std::size_t checkpoints = service.query().checkpoints.size();
  ASSERT_GT(checkpoints, 0u);

  service.start();
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_step = 0;
      std::uint64_t queries = 0;
      while (!service.finished() || queries < 50) {
        const ServiceView view = service.query();
        ++queries;
        if (view.step < last_step) failures.fetch_add(1);  // time ran backwards
        last_step = view.step;
        if (view.checkpoints.size() != checkpoints) failures.fetch_add(1);
        if (view.live_total < 0 || view.truth < 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  service.stop();

  EXPECT_EQ(failures.load(), 0);
  const ServiceView final_view = service.query();
  EXPECT_TRUE(final_view.finished);
  EXPECT_GT(final_view.step, 0u);
  // Closed lossless scenario: once converged, the protocol's live total
  // must equal the oracle's ground truth — the paper's exactness claim,
  // visible straight through the query surface.
  EXPECT_EQ(final_view.live_total, final_view.truth);
  EXPECT_EQ(cell_sum(final_view), final_view.live_total);
  EXPECT_FALSE(final_view.failed);
  EXPECT_TRUE(service.error().empty());
  EXPECT_TRUE(service.world().done());
}

// Dirty-cell publishing must add up to the whole table: after every step of
// a closed lossy and an open smoke world, the published view equals a view
// rebuilt by scanning every checkpoint, and the running aggregates agree
// with their own full-scan recount.
void expect_publishes_match_full_scans(const std::string& scenario) {
  const experiment::NamedScenario* named = experiment::ScenarioRegistry::builtin().find(scenario);
  ASSERT_NE(named, nullptr);
  SimWorld world(named->make(experiment::ScenarioScale::Smoke));
  const auto& protocol = world.protocol();
  PublishedCounts counts;
  counts.init(protocol.checkpoints().size());
  std::vector<CellUpdate> scratch;
  scratch.reserve(protocol.checkpoints().size());

  std::size_t cells_published = 0;
  for (bool first = true; first || !world.done(); first = false) {
    if (!first) world.step();
    (void)publish_world(world, counts, scratch, /*all_cells=*/first);
    if (!first) cells_published += scratch.size();
    ASSERT_TRUE(protocol.debug_aggregates_consistent()) << "step " << world.engine().step_count();

    const ServiceView view = counts.read();
    std::int64_t total = 0;
    bool all_stable = true;
    ASSERT_EQ(view.checkpoints.size(), protocol.checkpoints().size());
    for (const counting::Checkpoint& cp : protocol.checkpoints()) {
      const CheckpointCounts& cell = view.checkpoints[cp.node().value()];
      ASSERT_EQ(cell.local_total, cp.local_total())
          << "checkpoint " << cp.node().value() << " at step " << view.step;
      ASSERT_EQ(cell.active, cp.is_active()) << "checkpoint " << cp.node().value();
      ASSERT_EQ(cell.stable, cp.is_stable()) << "checkpoint " << cp.node().value();
      total += cp.local_total();
      all_stable = all_stable && cp.is_stable();
    }
    ASSERT_EQ(view.step, world.engine().step_count());
    ASSERT_EQ(view.live_total, total);
    ASSERT_EQ(view.all_stable, all_stable);
    ASSERT_EQ(view.truth, world.oracle().true_population());
    ASSERT_EQ(view.finished, world.done());
  }
  // Later publishes carried changes, but far fewer cells than full tables.
  EXPECT_GT(cells_published, 0u);
  EXPECT_LT(cells_published, world.engine().step_count() * protocol.checkpoints().size());
}

TEST(CountingServiceTest, DirtyCellPublishesMatchFullScansClosedLossy) {
  expect_publishes_match_full_scans("manhattan-closed-rush");
}

TEST(CountingServiceTest, DirtyCellPublishesMatchFullScansOpen) {
  expect_publishes_match_full_scans("manhattan-open-steady");
}

// An exception on the stepping thread is a published state, not
// std::terminate: the last consistent view is republished marked failed,
// finished() turns true so wait loops end, and error() keeps the message.
TEST(CountingServiceTest, ThrowingStepIsPublishedAsFailed) {
  CountingService service(small_closed_config());
  service.world().engine().set_route_planner(
      [](traffic::VehicleId, roadnet::NodeId) -> traffic::Route {
        throw std::runtime_error("route planner failed");
      });
  service.start();
  for (int waited_ms = 0; waited_ms < 60000 && !service.finished(); ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.finished());
  service.stop();

  const ServiceView view = service.query();
  EXPECT_TRUE(view.failed);
  EXPECT_TRUE(view.finished);
  EXPECT_EQ(cell_sum(view), view.live_total);
  EXPECT_EQ(service.error(), "route planner failed");
}

}  // namespace
}  // namespace ivc::serve

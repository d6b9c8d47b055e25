// Hostile snapshots, end to end: a corrupt snapshot that restore accepts
// must still run to the end. Restore checks every state a later step
// would abort on (ids outside the world, OBU tags ahead of their slots,
// markers and mail on vehicles that cannot deliver them, routes that do
// not connect, acks for markers never issued), so no flip gets that far.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "serve/snapshot.hpp"
#include "serve/world.hpp"

namespace ivc::serve {
namespace {

// The unit tier's truncation and flip sweep snapshots the same world: the
// tiny closed grid with one patrol car, after 100 steps (7,669 bytes).
TEST(SimWorldSnapshot, EveryAcceptedByteFlipRunsToTheEnd) {
  experiment::ScenarioConfig config;
  config.map.streets = 4;
  config.map.avenues = 3;
  config.mode = experiment::SystemMode::Closed;
  config.volume_pct = 50.0;
  config.vehicles_at_100pct = 40;
  config.num_seeds = 1;
  config.time_limit_minutes = 3.0;
  config.seed = 2014;
  config.num_patrol = 1;
  SimWorld source(config);
  for (int i = 0; i < 100; ++i) source.step();
  Snapshot snap;
  source.save(snap);
  const std::vector<std::uint8_t> bytes = snap.to_bytes();

  std::size_t ran = 0;
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[at] ^= 0xFF;
    SimWorld target(config, SimWorld::Mode::Restore);
    try {
      target.restore(Snapshot::from_bytes(flipped));
    } catch (const SnapshotError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << at << " flipped: restore threw " << typeid(e).name() << " ("
                    << e.what() << ") instead of SnapshotError";
      continue;
    }
    // The time limit ends every run within a few hundred steps, unless a
    // flip set the clock far back; the cap turns that into a failure.
    for (int step = 0; step < 100000 && !target.done(); ++step) target.step();
    EXPECT_TRUE(target.done()) << "byte " << at << " flipped: the run does not end";
    ++ran;
  }
  EXPECT_EQ(ran + rejected, bytes.size());
  EXPECT_GT(ran, 0u);
}

}  // namespace
}  // namespace ivc::serve

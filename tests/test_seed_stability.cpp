// Seed-stability regression: pinned event-stream fingerprints for two
// small named scenarios, one closed and one open.
//
// The engine's contract is bit-exact determinism: same seed, same event
// stream, on every platform and standard library. These pins turn
// *unintentional* drift — a reordered RNG draw, a changed event order, an
// accidental iteration-order dependence — into a loud, attributable
// failure instead of a silently shifted baseline.
//
// If you changed RNG consumption or event semantics ON PURPOSE, update the
// pinned values below from the failure message (run the test; it prints
// the actual hash/count) and say so in your PR description. Any other
// mismatch is a real regression: bisect it, do not re-pin it.
#include <gtest/gtest.h>

#include <cstdio>

#include "experiment/registry.hpp"
#include "testing/diff_runner.hpp"

namespace ivc::testing {
namespace {

struct Pin {
  const char* scenario;       // registry name, run at Smoke scale
  std::uint64_t event_hash;   // EventStreamHasher over the full run
  std::uint64_t event_count;  // total events delivered
};

// Pinned on the reference machine; stable across gcc/clang and libstdc++/
// libc++ by the engine's determinism contract (no unordered containers on
// any event-generating path, all seeds derived).
// Re-pinned for PR 5 (intentional drift, called out in the PR): router
// jitter, demand continuations and channel outcomes moved from shared
// sequential generators to counter-based per-entity streams, and the
// dynamics stop-line room check now reads a pre-phase snapshot — both
// required for schedule-independent parallel stepping.
constexpr Pin kPins[] = {
    {"roundabout-town-lossless", 0x09000cad5663c7b9ull, 455},
    {"manhattan-open-steady", 0xf053ac3c1b1259aaull, 5607},
};

TEST(SeedStability, PinnedScenariosProducePinnedEventStreams) {
  for (const Pin& pin : kPins) {
    const experiment::NamedScenario* scenario =
        experiment::ScenarioRegistry::builtin().find(pin.scenario);
    ASSERT_NE(scenario, nullptr) << pin.scenario;
    const RunDigest digest =
        run_digest_fast(scenario->make(experiment::ScenarioScale::Smoke));
    EXPECT_EQ(digest.event_hash, pin.event_hash)
        << pin.scenario << ": event stream drifted.\n"
        << "  pinned: hash=0x" << std::hex << pin.event_hash << std::dec
        << " events=" << pin.event_count << "\n"
        << "  actual: hash=0x" << std::hex << digest.event_hash << std::dec
        << " events=" << digest.events << "\n"
        << "If this drift is intentional (changed RNG stream or event order), "
        << "update kPins in " << __FILE__ << " and call it out in the PR; "
        << "otherwise bisect — something now consumes randomness or orders "
        << "events differently.";
    EXPECT_EQ(digest.events, pin.event_count) << pin.scenario;
  }
}

// The pins above only bind if runs are repeatable inside one process too.
TEST(SeedStability, RepeatedRunsAreBitExact) {
  const experiment::NamedScenario* scenario =
      experiment::ScenarioRegistry::builtin().find("roundabout-town-lossless");
  ASSERT_NE(scenario, nullptr);
  const experiment::ScenarioConfig config = scenario->make(experiment::ScenarioScale::Smoke);
  const RunDigest a = run_digest_fast(config);
  const RunDigest b = run_digest_fast(config);
  EXPECT_EQ(a.event_hash, b.event_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.checkpoint_totals, b.checkpoint_totals);
}

}  // namespace
}  // namespace ivc::testing

// Differential fuzz seed bank + harness self-tests.
//
// The fixed seed bank runs ~120 randomized scenarios (topology x demand x
// protocol x run length, each derived from a single replayable uint64)
// through both the optimized engine and the reference kernel and requires
// bit-exact agreement. The self-tests then *inject* engine bugs — the
// worklist-entry skip the harness exists to catch — and require the
// harness to (a) notice and (b) shrink to a minimal single-seed repro.
//
// Replay any failure locally:  ./build/ivc_fuzz --replay <case=0x... seed>
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"
#include "testing/reference_kernel.hpp"
#include "util/string_util.hpp"

namespace ivc::testing {
namespace {

// The exact derivation `ivc_fuzz --seed kBankCampaignSeed` uses, so a
// printed replay command reproduces the failing bank case verbatim.
std::uint64_t bank_seed(std::uint64_t campaign, std::uint64_t index) {
  return campaign_case_seed(campaign, index);
}

constexpr std::uint64_t kBankCampaignSeed = 2014;  // fixed forever: CI stability
constexpr int kBankCases = 120;

// FNV-1a fold of every bank case's (fast event hash, fast step count), in
// bank order. Matching the reference only proves the two engines agree;
// this pin proves the bank itself did not drift — a changed event stream
// or fuzzer draw moves it even when both engines move together.
// Pinned at the commit before the sharded step was deleted, when 79 of the
// 120 cases still drew a sharded engine (threads 2, or 0 = all cores):
// removing the sharded path and the fuzzer's thread-count draw had to
// reproduce it unedited. If you changed RNG consumption, event semantics
// or case generation ON PURPOSE, update it from the failure message and
// say so in the change; any other mismatch is a regression: bisect it, do
// not re-pin it.
constexpr std::uint64_t kBankDigest = 0x634334f0054b16caull;

TEST(DifferentialFuzz, SeedBankMatchesReference) {
  int failures = 0;
  std::uint64_t bank_digest = 1469598103934665603ull;  // FNV-1a offset basis
  for (int i = 0; i < kBankCases; ++i) {
    const std::uint64_t seed = bank_seed(kBankCampaignSeed, static_cast<std::uint64_t>(i));
    const DiffResult diff = diff_case(seed);
    for (const std::uint64_t word : {diff.fast.event_hash, diff.fast.steps}) {
      bank_digest = (bank_digest ^ word) * 1099511628211ull;  // FNV-1a prime
    }
    if (!diff.match) {
      ++failures;
      ADD_FAILURE() << "case " << i << " diverged\n  " << diff.summary
                    << "\n  divergence: " << diff.divergence
                    << "\n  replay: ivc_fuzz --replay "
                    << util::format("0x%llx", static_cast<unsigned long long>(seed));
      if (failures >= 3) break;  // enough signal; keep the log readable
    }
    // Every case must exercise real work, or the bank guards nothing.
    EXPECT_GT(diff.fast.steps, 0u);
    EXPECT_GT(diff.fast.total_spawned, 0u);
  }
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(bank_digest, kBankDigest)
      << "bank digest drifted: pinned 0x" << std::hex << kBankDigest << ", actual 0x"
      << bank_digest << std::dec << ". If the drift is intentional, update kBankDigest in "
      << __FILE__ << " and call it out; otherwise bisect.";
}

// The converged cases in the bank must also satisfy the paper's exactness
// claim — the fuzzer's whole reason to exist is reaching regimes (loss up
// to 0.9, irregular topologies) the curated zoo never visits.
TEST(DifferentialFuzz, ConvergedCasesAreExact) {
  int converged = 0;
  for (int i = 0; i < kBankCases; i += 4) {
    const std::uint64_t seed = bank_seed(kBankCampaignSeed, static_cast<std::uint64_t>(i));
    const FuzzCase fc = make_fuzz_case(seed);
    const RunDigest digest = run_digest_fast(fc.config);
    if (digest.constitution_converged && digest.quiescent) {
      ++converged;
      EXPECT_TRUE(digest.total_exact)
          << fc.summary << "\n  protocol_total=" << digest.protocol_total
          << " truth=" << digest.truth;
    }
    // The event-ledger population (derived purely from observable events)
    // must always equal the engine's ground truth, converged or not.
    EXPECT_EQ(digest.ledger_population, digest.population_inside) << fc.summary;
  }
  EXPECT_GT(converged, 5) << "seed bank no longer reaches convergence; rebalance the fuzzer";
}

// The same bank through the snapshot-roundtrip mode: every case is run to
// a seed-derived cut step, saved, serialized, parsed back, restored into a
// freshly built world, and run to completion. The digest (event-stream
// hash, checkpoint totals, oracle verdicts, ...) must be byte-identical to
// the uninterrupted run. This is the acceptance gate for the serve layer:
// restore-then-continue is bit-exact, or the snapshot is not a snapshot.
TEST(DifferentialFuzz, SeedBankSnapshotRoundtripIsBitExact) {
  int failures = 0;
  for (int i = 0; i < kBankCases; ++i) {
    const std::uint64_t seed = bank_seed(kBankCampaignSeed, static_cast<std::uint64_t>(i));
    const DiffResult diff = diff_case_snapshot(seed, /*snapshot_at=*/-1);
    if (!diff.match) {
      ++failures;
      ADD_FAILURE() << "case " << i << " lost state across save/restore\n  " << diff.summary
                    << "\n  divergence: " << diff.divergence
                    << "\n  replay: ivc_fuzz --snapshot-at -1 --replay "
                    << util::format("0x%llx", static_cast<unsigned long long>(seed));
    }
    EXPECT_GT(diff.fast.steps, 0u);
    if (failures >= 3) break;  // enough signal; keep the log readable
  }
  EXPECT_EQ(failures, 0);
}

// ---- injected-bug self-tests ------------------------------------------------

// Skips the last occupied-lane worklist entry in the dynamics phase — the
// exact bug class (worklist bookkeeping) the harness exists to catch.
class SkipLastLaneEngine final : public traffic::SimEngine {
 public:
  using SimEngine::SimEngine;

 protected:
  void update_dynamics() override {
    // Take the entry-room snapshot like every legitimate driver, so the
    // injected defect stays exactly the worklist skip under test.
    prepare_entry_space();
    for (std::size_t w = 0; w + 1 < occupied_lanes_.size(); ++w) {
      dynamics_pass(occupied_lanes_[w]);
    }
  }
};

// Drops every 7th intersection from transit admission — an active-node
// bookkeeping bug.
class SkipNodeEngine final : public traffic::SimEngine {
 public:
  using SimEngine::SimEngine;

 protected:
  void process_transits() override {
    scratch_lanes_.assign(occupied_lanes_.begin(), occupied_lanes_.end());
    for (const std::uint32_t index : scratch_lanes_) collect_transit_candidates(index);
    std::sort(active_nodes_.begin(), active_nodes_.end());
    for (const roadnet::NodeId node : active_nodes_) {
      if (node.value() % 7 == 3) {
        node_candidates_[node.value()].clear();  // silently starve the node
        continue;
      }
      admit_at_node(node);
    }
    active_nodes_.clear();
  }
};

template <typename Engine>
EngineFactory factory_for() {
  return [](const roadnet::RoadNetwork& net, traffic::SimConfig sim) {
    return std::make_unique<Engine>(net, sim);
  };
}

TEST(DifferentialFuzz, InjectedWorklistSkipIsCaughtAndShrunk) {
  const EngineFactory buggy = factory_for<SkipLastLaneEngine>();
  std::uint64_t failing_seed = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed = bank_seed(kBankCampaignSeed, static_cast<std::uint64_t>(i));
    if (!diff_case(seed, buggy).match) {
      failing_seed = seed;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u) << "worklist-skip bug survived 10 bank cases undetected";

  const auto shrunk = shrink_case(failing_seed, buggy);
  ASSERT_TRUE(shrunk.has_value());
  // The minimal repro still diverges, is replayable from its seed alone,
  // and shrank in at least one dimension.
  EXPECT_FALSE(shrunk->minimal.match);
  EXPECT_FALSE(shrunk->trail.empty());
  EXPECT_EQ(shrunk->minimal_seed & kBaseSeedMask, failing_seed & kBaseSeedMask);
  EXPECT_TRUE(unpack_shrink(shrunk->minimal_seed).any());
  const DiffResult replayed = diff_case(shrunk->minimal_seed, buggy);
  EXPECT_FALSE(replayed.match);
  EXPECT_EQ(replayed.divergence, shrunk->minimal.divergence);
  // The shrunk case really is a smaller *configuration* (steps may vary:
  // lighter demand can converge later in sim time).
  const FuzzCase original_case = make_fuzz_case(failing_seed);
  const FuzzCase minimal_case = make_fuzz_case(shrunk->minimal_seed);
  EXPECT_LE(minimal_case.config.time_limit_minutes, original_case.config.time_limit_minutes);
  EXPECT_LE(minimal_case.config.vehicles_at_100pct, original_case.config.vehicles_at_100pct);
}

TEST(DifferentialFuzz, InjectedNodeStarvationIsCaught) {
  const EngineFactory buggy = factory_for<SkipNodeEngine>();
  int caught = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t seed = bank_seed(kBankCampaignSeed, static_cast<std::uint64_t>(i));
    if (!diff_case(seed, buggy).match) ++caught;
  }
  EXPECT_GT(caught, 0) << "node-starvation bug survived 8 bank cases undetected";
}

// ---- registry hooks ---------------------------------------------------------

TEST(DifferentialFuzz, NamedScenariosDiffClean) {
  // One closed and one open registry entry, diff-checked at smoke scale —
  // the hook that lets any named scenario ride the differential harness.
  for (const char* name : {"roundabout-town-lossless", "manhattan-open-steady"}) {
    const auto diff = diff_named_scenario(name);
    ASSERT_TRUE(diff.has_value()) << name;
    EXPECT_TRUE(diff->match) << diff->summary << "\n  divergence: " << diff->divergence;
    EXPECT_GT(diff->fast.steps, 0u);
  }
  EXPECT_FALSE(diff_named_scenario("no-such-scenario").has_value());
}

}  // namespace
}  // namespace ivc::testing

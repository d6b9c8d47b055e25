// Differential runner: fast engine vs. reference kernel on the same case.
//
// Runs a fully-wired scenario twice — once on the optimized SimEngine (or
// an injected-bug engine under test) and once on the deliberately slow
// ReferenceKernel — and compares run digests: the bit-exact event-stream
// hash, per-checkpoint totals, protocol/oracle exactness verdicts, the
// quiescence flags, and an event-ledger population derived purely from the
// observed spawn/transit stream. The reference run additionally validates
// every route continuation against a naive Dijkstra and recounts the fast
// engine's incremental state by linear scan each step.
//
// On divergence the runner shrinks: the same base case re-derived at
// reduced run length, demand and topology scale (the shrink level lives in
// the top byte of the case seed — see fuzzer.hpp), so the minimal
// reproducer is again a single replayable uint64.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario.hpp"
#include "testing/fuzzer.hpp"

namespace ivc::testing {

// FNV-1a fingerprint over every field of every event, in delivery order,
// plus an event-ledger interior population: +1 for every non-patrol spawn
// on an interior edge, ±1 for every non-patrol transit across the
// interior/gateway boundary — population derived from observable moments
// only, the way the paper's checkpoints see the world.
class EventStreamHasher final : public traffic::SimObserver {
 public:
  // Subscribes to `engine`'s events, and reads it to keep the ledger. Attach
  // before the first step: the first step's flush delivers the initial
  // placement's spawns.
  void attach(traffic::SimEngine& engine) {
    engine_ = &engine;
    engine.add_observer(this);
  }

  void on_spawn(const traffic::SpawnEvent& e) override;
  void on_transit(const traffic::TransitEvent& e) override;
  void on_despawn(const traffic::DespawnEvent& e) override;

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t event_count() const { return events_; }
  [[nodiscard]] std::int64_t ledger_population() const { return ledger_population_; }

 private:
  void mix(std::uint64_t v);
  [[nodiscard]] bool countable(traffic::VehicleId id) const;  // alive non-patrol

  const traffic::SimEngine* engine_ = nullptr;
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t events_ = 0;
  std::int64_t ledger_population_ = 0;
};

// Everything one run yields that the other run must reproduce.
struct RunDigest {
  std::uint64_t event_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t steps = 0;
  std::uint64_t transits = 0;
  std::uint64_t total_spawned = 0;
  std::int64_t protocol_total = 0;
  std::int64_t collected_total = 0;
  std::int64_t truth = 0;
  std::int64_t population_inside = 0;
  std::int64_t ledger_population = 0;
  std::uint64_t double_counted = 0;
  bool total_exact = false;
  bool exactly_once = false;
  bool constitution_converged = false;
  bool collection_converged = false;
  bool quiescent = false;
  std::vector<std::int64_t> checkpoint_totals;  // local view per NodeId
  // Invariant failures: the protocol's aggregates disagreeing with their
  // full-scan recount after a step (checked on every run), plus, on the
  // reference run, the kernel's invariant recounts and route validations.
  std::vector<std::string> violations;
  // Roundtrip runs only: the encoded snapshot the resumed world was
  // restored from. compare() skips it, since the reference run takes none.
  std::vector<std::uint8_t> snapshot_bytes;
};

struct DiffResult {
  std::uint64_t case_seed = 0;
  std::string summary;
  bool match = false;
  std::string divergence;  // first mismatching field, human-readable
  RunDigest fast;
  RunDigest reference;
};

// One scenario through the fast engine (or `factory`'s engine under test).
[[nodiscard]] RunDigest run_digest_fast(const experiment::ScenarioConfig& config,
                                        const experiment::EngineFactory& factory = {});
// Same scenario through the reference kernel, with per-step invariant
// recounts and naive-Dijkstra continuation validation.
[[nodiscard]] RunDigest run_digest_reference(const experiment::ScenarioConfig& config);

// Fast-vs-reference diff of an arbitrary scenario config. `fast_factory`
// substitutes the engine under test (injected-bug engines in the harness's
// self-tests); empty means the production SimEngine.
[[nodiscard]] DiffResult diff_config(const experiment::ScenarioConfig& config,
                                     const experiment::EngineFactory& fast_factory = {});

// Diff of a generated fuzz case (replayable from the seed alone).
[[nodiscard]] DiffResult diff_case(std::uint64_t case_seed,
                                   const experiment::EngineFactory& fast_factory = {});

// Snapshot-roundtrip mode: the scenario is run to step `snapshot_at`,
// saved, the snapshot is serialized to bytes, parsed back, restored into a
// freshly built world, and the run continues to completion. The resulting
// digest fills the `fast` slot; the `reference` slot is the uninterrupted
// run. A restore that loses or perturbs any state shows up as the usual
// first-field divergence (event hash, checkpoint totals, oracle
// verdicts...); a writer and reader that disagree show up as a violation,
// because the restored world must re-save to the bytes it was restored
// from. `snapshot_at <= 0` derives a pseudo-random step in
// [1, max steps] from the config seed, so the seed bank probes a different
// cut point per case. `fast_factory` substitutes the engine under test on
// BOTH sides.
[[nodiscard]] DiffResult diff_config_snapshot(
    const experiment::ScenarioConfig& config, std::int64_t snapshot_at = -1,
    const experiment::EngineFactory& fast_factory = {});
[[nodiscard]] DiffResult diff_case_snapshot(
    std::uint64_t case_seed, std::int64_t snapshot_at = -1,
    const experiment::EngineFactory& fast_factory = {});
// Same, for a builtin registry scenario at Smoke scale (nullopt when the
// name is unknown).
[[nodiscard]] std::optional<DiffResult> diff_named_scenario_snapshot(
    std::string_view name, std::int64_t snapshot_at = -1);

// Registry hook: diff-check a named scenario from the builtin catalogue at
// Smoke scale. Returns nullopt when the name is unknown.
[[nodiscard]] std::optional<DiffResult> diff_named_scenario(std::string_view name);

struct ShrinkResult {
  std::uint64_t minimal_seed = 0;  // replay with ivc_fuzz --replay
  DiffResult minimal;              // still-diverging diff at minimal_seed
  int attempts = 0;                // diff runs spent shrinking
  std::vector<std::string> trail;  // accepted shrink steps, in order
};

// Greedy minimization of a diverging case: repeatedly halve run length,
// then demand, then topology scale, keeping each reduction that still
// diverges. Returns nullopt when `failing_seed` does not actually diverge.
[[nodiscard]] std::optional<ShrinkResult> shrink_case(
    std::uint64_t failing_seed, const experiment::EngineFactory& fast_factory = {});

}  // namespace ivc::testing

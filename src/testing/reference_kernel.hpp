// Differential-testing reference kernel.
//
// A deliberately slow, obviously-correct driver for the engine's per-step
// semantics. The fast SimEngine enumerates work through optimized state —
// the occupied-lane worklist, the active-node transit list, the O(1)
// population and per-edge occupancy counters. The reference kernel
// overrides the step phases to enumerate work the way the original full
// scans did — every lane of every segment in index (segment-major) order,
// every intersection in id order — while calling the exact same per-lane
// phase bodies, so the two engines perform identical per-vehicle math and
// consume identical RNG draws. Any divergence between their event streams
// therefore isolates a bug in the fast enumeration structures, not a
// modelling difference.
//
// The kernel additionally re-derives, by linear scan each step, the
// quantities the fast engine maintains incrementally (population_inside,
// occupied-lane worklist, per-edge counters, lane ordering) and records a
// violation when a counter and its recount disagree. Violations are
// collected rather than asserted so a fuzz campaign can shrink and report
// the failing case instead of aborting.
//
// Cost: O(total lanes + total nodes) per step regardless of traffic — the
// cost model the worklist was built to avoid. Tests only; never benchmark
// against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "roadnet/road_network.hpp"
#include "traffic/sim_engine.hpp"

namespace ivc::testing {

class ReferenceKernel final : public traffic::SimEngine {
 public:
  using SimEngine::SimEngine;

  // Invariant violations observed so far (bounded; see kMaxViolations).
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t violation_count() const { return violation_count_; }
  // Steps on which the full invariant recount ran (== step_count()).
  [[nodiscard]] std::uint64_t checked_steps() const { return checked_steps_; }

  void record_violation(std::string what);

 protected:
  // Full segment×lane scan in lane-index order — the order the worklist
  // reproduces. detect_overtakes() is not overridden: the base version is
  // already the naive watched-major scan over every lane of the vehicle's
  // edge, with no enumeration shortcut to cross-check.
  void apply_lane_changes() override;
  void update_dynamics() override;
  void process_transits() override;

 private:
  static constexpr std::size_t kMaxViolations = 8;

  void check_invariants();

  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t checked_steps_ = 0;
};

// Countable interior population by linear scan over every alive vehicle —
// the reference for the engine's O(1) population_inside() counter.
[[nodiscard]] std::size_t reference_population_inside(const traffic::SimEngine& engine);

// Naive heap-less Dijkstra (O(V^2 + E)) over free-flow edge times on the
// interior graph — the reference lower bound for Router::plan's jittered
// A*. Returns +inf when `to` is unreachable from `from`.
[[nodiscard]] double reference_shortest_free_flow(const roadnet::RoadNetwork& net,
                                                 roadnet::NodeId from, roadnet::NodeId to);

// Validates one demand-planned route continuation from `node` against the
// reference: edge-chain continuity, no gateway traversal mid-route, and
// the free-flow cost of the interior prefix within the router's jitter
// envelope (kJitterHi / kJitterLo) of the naive-Dijkstra optimum. Returns
// an empty string when the route passes, else a description of the first
// failure.
[[nodiscard]] std::string validate_continuation(const roadnet::RoadNetwork& net,
                                                roadnet::NodeId node,
                                                const traffic::Route& route);

}  // namespace ivc::testing

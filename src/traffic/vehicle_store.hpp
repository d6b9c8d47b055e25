// Struct-of-arrays vehicle storage.
//
// The engine's per-step hot loops — IDM integration (dynamics_lanes) and
// gap-acceptance lane changes (lane_change_pass) —
// sweep lanes of vehicles reading a handful of scalars each. The old AoS
// `Vehicle` record spread those scalars across ~200 bytes of struct (route
// vector, exterior attributes, RNG counters), so every per-vehicle touch
// dragged several cache lines of cold state through L1 and left the
// compiler nothing contiguous to vectorize. VehicleStore keeps one dense
// array per hot field, indexed by VehicleId::slot(); the sweeps gather
// those fields by slot through the lane lists, so a vehicle costs a few
// 8-byte loads rather than several cache lines. Everything the sweeps
// never read per vehicle stays in the parallel VehicleCold record
// (vehicle.hpp), touched only on slow paths (spawn, admission, despawn,
// protocol queries). IDM parameters are not per vehicle: the engine holds
// one IdmParams for all of them.
//
// Invariants:
//  * every array has exactly one row per slot (rows_consistent());
//  * a slot's hot row and cold record are reset together when the slot is
//    recycled (reset_slot), so a bumped generation never inherits stale
//    kinematics;
//  * slots are append-only: push_slot() grows every array by one row and
//    rows are never erased — the alive set is tracked by the engine's
//    dense alive index, not by compacting the store.
//
// Readers outside the engine go through the VehicleRef proxy below, which
// presents a per-vehicle view (veh.position(), veh.attrs(), ...) without
// materializing an AoS record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "roadnet/types.hpp"
#include "traffic/attributes.hpp"
#include "traffic/vehicle.hpp"
#include "util/assert.hpp"

namespace ivc::traffic {

class VehicleStore {
 public:
  // ---- hot state, one contiguous array per field, indexed by slot ----------
  std::vector<double> position;            // m from edge start (front bumper)
  std::vector<double> speed;               // m/s
  std::vector<double> length;              // m, from body type
  std::vector<double> desired_speed_factor;  // multiplies the edge speed limit
  std::vector<roadnet::EdgeId> edge;       // current segment
  std::vector<std::int32_t> lane;          // lane on that segment
  // Steps since the last lane change (hysteresis against ping-ponging).
  std::vector<std::int32_t> lane_change_cooldown;
  // Patrol flag as a byte so the lane-change sweep reads it from a dense
  // array (std::vector<bool> would cost a bit-shift per access).
  std::vector<std::uint8_t> is_patrol;

  // ---- cold state, one record per slot -------------------------------------
  std::vector<VehicleCold> cold;

  [[nodiscard]] std::size_t slot_count() const { return cold.size(); }

  // Appends one default-initialized row to every array; returns the slot.
  std::uint32_t push_slot() {
    const auto slot = static_cast<std::uint32_t>(cold.size());
    position.push_back(0.0);
    speed.push_back(0.0);
    length.push_back(0.0);
    desired_speed_factor.push_back(1.0);
    edge.emplace_back();
    lane.push_back(0);
    lane_change_cooldown.push_back(0);
    is_patrol.push_back(0);
    cold.emplace_back();
    return slot;
  }

  // Resets a slot's hot row and cold record to spawn defaults. The caller
  // (the engine's spawn path) then fills the real values; the point is
  // that a recycled slot can never leak the previous tenant's kinematics
  // or route into the new generation.
  void reset_slot(std::uint32_t slot) {
    IVC_ASSERT(slot < cold.size());
    position[slot] = 0.0;
    speed[slot] = 0.0;
    length[slot] = 0.0;
    desired_speed_factor[slot] = 1.0;
    edge[slot] = roadnet::EdgeId::invalid();
    lane[slot] = 0;
    lane_change_cooldown[slot] = 0;
    is_patrol[slot] = 0;
    cold[slot] = VehicleCold{};
  }

  [[nodiscard]] double desired_speed(std::uint32_t slot, double edge_limit) const {
    return edge_limit * desired_speed_factor[slot];
  }

  // True when every array carries exactly one row per slot. O(1); tests
  // and debug assertions.
  [[nodiscard]] bool rows_consistent() const {
    const std::size_t n = cold.size();
    return position.size() == n && speed.size() == n && length.size() == n &&
           desired_speed_factor.size() == n && edge.size() == n && lane.size() == n &&
           lane_change_cooldown.size() == n && is_patrol.size() == n;
  }
};

// Read-only per-vehicle view over the SoA store: two words, pass by value.
// Accessors mirror the old `Vehicle` struct field-for-field so call sites
// read `veh.position()` where they read `veh.position` before the split.
class VehicleRef {
 public:
  VehicleRef(const VehicleStore& store, std::uint32_t slot)
      : store_(&store), slot_(slot) {}

  [[nodiscard]] VehicleId id() const { return store_->cold[slot_].id; }
  [[nodiscard]] const ExteriorAttributes& attrs() const { return store_->cold[slot_].attrs; }
  [[nodiscard]] bool alive() const { return store_->cold[slot_].alive; }
  [[nodiscard]] bool is_patrol() const { return store_->is_patrol[slot_] != 0; }
  [[nodiscard]] roadnet::EdgeId edge() const { return store_->edge[slot_]; }
  [[nodiscard]] int lane() const { return store_->lane[slot_]; }
  [[nodiscard]] double position() const { return store_->position[slot_]; }
  [[nodiscard]] double speed() const { return store_->speed[slot_]; }
  [[nodiscard]] double length() const { return store_->length[slot_]; }
  [[nodiscard]] double desired_speed_factor() const {
    return store_->desired_speed_factor[slot_];
  }
  [[nodiscard]] const Route& route() const { return store_->cold[slot_].route; }
  [[nodiscard]] std::uint64_t entry_seq() const { return store_->cold[slot_].entry_seq; }
  [[nodiscard]] int lane_change_cooldown() const {
    return store_->lane_change_cooldown[slot_];
  }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }

  [[nodiscard]] double desired_speed(double edge_limit) const {
    return store_->desired_speed(slot_, edge_limit);
  }

 private:
  const VehicleStore* store_;
  std::uint32_t slot_;
};

}  // namespace ivc::traffic

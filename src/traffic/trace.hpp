// Lightweight trace observers used by tests and examples.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "traffic/events.hpp"

namespace ivc::traffic {

// Counts transits per intersection and per vehicle; cheap enough to attach
// in every test.
class TransitCounter final : public SimObserver {
 public:
  void on_transit(const TransitEvent& event) override {
    ++total_;
    ++per_node_[event.node.value()];
    ++per_vehicle_[event.vehicle.value()];
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t at_node(roadnet::NodeId node) const {
    const auto it = per_node_.find(node.value());
    return it == per_node_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t of_vehicle(VehicleId veh) const {
    const auto it = per_vehicle_.find(veh.value());
    return it == per_vehicle_.end() ? 0 : it->second;
  }

 private:
  std::uint64_t total_ = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> per_node_;
  // Keyed by the packed (slot, generation) value so recycled slots don't
  // merge the histories of successive vehicles.
  std::unordered_map<std::uint64_t, std::uint64_t> per_vehicle_;
};

// Records every event verbatim (small scenarios only).
class EventRecorder final : public SimObserver {
 public:
  void on_transit(const TransitEvent& event) override { transits.push_back(event); }
  void on_spawn(const SpawnEvent& event) override { spawns.push_back(event); }
  void on_despawn(const DespawnEvent& event) override { despawns.push_back(event); }

  std::vector<TransitEvent> transits;
  std::vector<SpawnEvent> spawns;
  std::vector<DespawnEvent> despawns;
};

}  // namespace ivc::traffic

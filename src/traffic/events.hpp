// Simulation events consumed by the surveillance / counting layers.
//
// The engine is observer-driven: the counting protocol never polls vehicle
// state; it reacts to the same observable moments the paper's checkpoints
// do — a vehicle transiting an intersection (camera + V2I exchange window)
// and confirmed overtake reports from cooperative V2V ranging.
//
// Events are not dispatched at their generation site: the engine appends
// them to a per-step EventBuffer (a typed variant stream, kept in
// generation order) and flushes the whole batch once at the end of the
// step. Observers keep the virtual SimObserver interface, so the batched
// pipeline is invisible to them — they just see the same per-event calls,
// delivered back-to-back instead of interleaved with the engine's hot
// loops.
#pragma once

#include <variant>
#include <vector>

#include "roadnet/types.hpp"
#include "traffic/vehicle.hpp"
#include "util/sim_time.hpp"

namespace ivc::traffic {

// A vehicle crossed intersection `node`, arriving via `from_edge` and
// departing via `to_edge`. Either may be a gateway edge (open systems);
// both are always valid edge ids.
struct TransitEvent {
  util::SimTime time;
  VehicleId vehicle;
  roadnet::NodeId node;
  roadnet::EdgeId from_edge;
  roadnet::EdgeId to_edge;
  // The vehicle's entry sequence number on `from_edge` (its Vehicle record
  // already carries the new sequence for `to_edge` when observers run).
  std::uint64_t from_entry_seq = 0;
};

// Confirmed order flip on `edge` involving a *watched* vehicle (the engine
// only tracks watched vehicles — the protocol watches label carriers, per
// the paper's collaborative V2V detection [8]).
struct OvertakeEvent {
  util::SimTime time;
  roadnet::EdgeId edge;
  VehicleId watched;
  VehicleId other;
  // true: `other` moved ahead of `watched` (watched was overtaken);
  // false: `watched` moved ahead of `other` (watched overtook).
  bool other_now_ahead = false;
};

struct SpawnEvent {
  util::SimTime time;
  VehicleId vehicle;
  roadnet::EdgeId edge;
};

// Vehicle left the simulation (reached the outer end of an outbound
// gateway edge). Closed systems never despawn.
struct DespawnEvent {
  util::SimTime time;
  VehicleId vehicle;
  roadnet::EdgeId edge;
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_spawn(const SpawnEvent&) {}
  virtual void on_transit(const TransitEvent&) {}
  virtual void on_overtake(const OvertakeEvent&) {}
  virtual void on_despawn(const DespawnEvent&) {}
  virtual void on_step_end(util::SimTime) {}
};

// One simulation event of any kind.
using SimEvent = std::variant<SpawnEvent, TransitEvent, OvertakeEvent, DespawnEvent>;

// Per-step event batch. The engine appends during the step; flush()
// replays the batch to every observer in generation (index) order — the
// exact order the old per-site virtual dispatch used — then clears.
//
// Observers may not mutate the engine during a flush; they can, however,
// be fed events that reference vehicles despawned earlier in the same
// step, because the engine defers slot recycling until after the flush.
class EventBuffer {
 public:
  template <typename Event>
  void push(Event&& event) {
    events_.emplace_back(std::forward<Event>(event));
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }

  void flush(const std::vector<SimObserver*>& observers) {
    // Index loop: stays valid even if a (misbehaving) observer appends.
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const SimEvent event = events_[i];
      for (SimObserver* obs : observers) {
        std::visit([obs](const auto& e) { dispatch(obs, e); }, event);
      }
    }
    events_.clear();
  }

 private:
  static void dispatch(SimObserver* obs, const SpawnEvent& e) { obs->on_spawn(e); }
  static void dispatch(SimObserver* obs, const TransitEvent& e) { obs->on_transit(e); }
  static void dispatch(SimObserver* obs, const OvertakeEvent& e) { obs->on_overtake(e); }
  static void dispatch(SimObserver* obs, const DespawnEvent& e) { obs->on_despawn(e); }

  std::vector<SimEvent> events_;
};

}  // namespace ivc::traffic

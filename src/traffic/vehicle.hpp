// Vehicle identity, routing, and cold per-slot state.
//
// A vehicle is a purely kinematic entity plus exterior attributes; all
// protocol state (label bit, counted bit, carried reports) lives in the
// v2x::Obu owned by the counting layer, keyed by VehicleId. A VehicleId is
// a generational handle (32-bit storage slot + 32-bit generation): the
// engine recycles the slot of a despawned vehicle, bumping the generation,
// so storage stays O(peak concurrent vehicles) while a stale id held by
// the protocol layer stops matching instead of silently aliasing a new
// vehicle.
//
// Kinematic hot state (position, speed, lane, ...) does NOT live here: it
// is stored struct-of-arrays in traffic::VehicleStore (vehicle_store.hpp),
// indexed by the id's slot, so the engine's per-step sweeps gather a few
// dense arrays instead of striding through fat records.
// This header keeps only what those sweeps never touch per vehicle: the
// route, the exterior attributes, and the RNG/entry-order bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

#include "roadnet/types.hpp"
#include "traffic/attributes.hpp"
#include "util/ids.hpp"

namespace ivc::traffic {

struct VehicleTag {};
using VehicleId = util::GenId<VehicleTag>;

// Remaining route as edge ids. `cyclic` routes wrap (patrol cars driving
// the Theorem-4 cycle forever); ordinary routes are consumed and replanned
// by the demand model when exhausted.
struct Route {
  std::vector<roadnet::EdgeId> edges;
  std::size_t next = 0;
  bool cyclic = false;

  [[nodiscard]] bool exhausted() const { return !cyclic && next >= edges.size(); }
  [[nodiscard]] roadnet::EdgeId peek() const {
    if (cyclic) return edges.empty() ? roadnet::EdgeId::invalid() : edges[next % edges.size()];
    return exhausted() ? roadnet::EdgeId::invalid() : edges[next];
  }
  void advance() {
    if (cyclic) {
      next = (next + 1) % edges.size();
    } else if (next < edges.size()) {
      ++next;
    }
  }
};

// Cold per-slot record: everything the per-step sweeps do not read per
// vehicle. Touched on the slow paths only — spawn, admission/replanning
// (front vehicle of a lane), despawn, and protocol/oracle queries.
struct VehicleCold {
  VehicleId id;
  ExteriorAttributes attrs;
  bool alive = false;

  Route route;

  // Monotone sequence number assigned each time the vehicle is placed on a
  // new edge (spawn or transit; NOT lane changes). Two vehicles on the same
  // edge entered in entry_seq order — the protocol's overtake accounting
  // compares arrival order against this entry order.
  std::uint64_t entry_seq = 0;

  // Counter-based RNG stream (util::counter_mix): every draw made on this
  // vehicle's behalf — roam fallback, route replanning and its jitter —
  // comes from (rng_key, rng_draws++), so the values depend only on the
  // vehicle's own history, never on which other vehicle drew first.
  // Assigned at spawn from the engine's vehicle-stream seed and the
  // generational id.
  std::uint64_t rng_key = 0;
  std::uint64_t rng_draws = 0;
};

}  // namespace ivc::traffic

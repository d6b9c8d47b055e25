// Time-stepped microscopic traffic simulation engine.
//
// Substitute for SUMO (paper Sec. V): IDM car-following per lane,
// gap-acceptance lane changes (overtaking on multi-lane segments),
// per-approach intersection admission, store-and-forward of vehicles across
// intersections with position carry-over, Poisson boundary flows (driven by
// the demand models), and observer hooks at exactly the moments the
// counting protocol can observe (intersection transits, spawns/despawns).
//
// Determinism: given a seed and a fixed observer set, runs are bit-exact
// across platforms and standard libraries. All iteration is in index or
// sorted order (no unordered containers on any event-generating path);
// events are delivered from a per-step buffer in generation order; every
// random draw made while a lane is stepped comes from a counter-based
// per-vehicle stream (util::counter_mix), so a draw's value depends only
// on the drawing vehicle's own history, never on which lane drew before
// it. Together with the entry-space snapshot (prepare_entry_space), that
// is what lets dynamics_lanes<4> interleave lanes and still reproduce the
// reference kernel's lane-by-lane scan bit for bit.
//
// Cost model: every per-step phase is O(occupied lanes + vehicles), not
// O(total lanes). The engine maintains a sorted worklist of non-empty
// lanes (updated by insert_into_lane/remove_from_lane) and drives lane
// changes, dynamics and transit collection off it, so a sparse city-scale
// map costs what its traffic costs, not what its area costs. The worklist
// is kept in ascending lane-index order, which is exactly the
// segment-major order a full map scan would visit, so event streams are
// bit-identical to the scan they replaced.
//
// Storage: vehicle state is struct-of-arrays (VehicleStore) — one dense
// array per hot field (position, speed, length, edge/lane, ...), indexed
// by the generational id's slot, with route/attrs/RNG bookkeeping in a
// cold per-slot record. The per-lane sweeps gather only the hot arrays,
// by slot through the lane lists, instead of striding through fat AoS
// records; the arithmetic is unchanged, so the layout is invisible in the
// event stream. Every vehicle drives with the one engine-wide IdmParams.
//
// Serial dynamics integrates the occupied lanes in groups of four,
// round-robin over their vehicles (dynamics_lanes): one lane's update is
// a latency-bound front-to-back chain, and independent lanes overlap.
// Each vehicle reads the same inputs as lane-by-lane stepping, so the
// result is bit-identical to it.
//
// Model notes:
//  * "Simple road model" (paper Sec. III-A): single-lane roads, no lane
//    changes, one admission per intersection per step -> strictly FIFO
//    edges, the precondition of Theorem 1. Configure with
//    `SimConfig::simple_model()`.
//  * Extended model: multi-lane, overtakes, one admission per approach per
//    step (roundabouts likewise admit per approach, modeling the paper's
//    multi-target tracking).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "roadnet/road_network.hpp"
#include "traffic/events.hpp"
#include "traffic/idm.hpp"
#include "traffic/vehicle.hpp"
#include "traffic/vehicle_store.hpp"
#include "util/perf.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ivc::serve {
class Snapshot;
struct SnapshotAccess;
}  // namespace ivc::serve

namespace ivc::traffic {

struct SimConfig {
  double dt = 0.5;  // s per step
  // true: one admission per inbound approach per step (extended model);
  // false: one admission per intersection per step (simple model).
  bool multi_admission = true;
  bool allow_lane_change = true;
  // Distance from the segment end at which a front vehicle starts treating
  // a blocked intersection as a stop line.
  double intersection_lookahead = 40.0;
  // Must be 1: the engine steps serially (the constructor asserts it).
  // Kept only because the repo benchmark still sets it.
  int threads = 1;
  std::uint64_t seed = 1;

  [[nodiscard]] static SimConfig simple_model() {
    SimConfig c;
    c.multi_admission = false;
    c.allow_lane_change = false;
    return c;
  }
};

class SimEngine {
 public:
  SimEngine(const roadnet::RoadNetwork& net, SimConfig config);

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  // Subclassed by the differential-testing reference kernel and by
  // injected-bug engines in the fuzz harness.
  virtual ~SimEngine() = default;

  // ---- wiring -------------------------------------------------------------

  // Observers are non-owning and are invoked in registration order. Events
  // are batched in a per-step EventBuffer and delivered once per step, at
  // its end; see events.hpp.
  void add_observer(SimObserver* observer);

  // Attach a perf collector (nullptr detaches). When attached, every step
  // phase is timed; when detached the engine does not even read the clock.
  void set_perf(util::PerfCollector* perf) { perf_ = perf; }

  // Called when a vehicle's route is exhausted and it needs a continuation
  // from `node`; must return a route whose first edge leaves `node` (or an
  // empty route to fall back to a random out-edge).
  using RoutePlanner = std::function<Route(VehicleId, roadnet::NodeId)>;
  void set_route_planner(RoutePlanner planner);

  // ---- vehicle management ---------------------------------------------------

  // Spawn at an arbitrary position (initial population placement). Fails
  // (returns invalid id) if the spot would violate the jam gap.
  VehicleId spawn_at(roadnet::EdgeId edge, int lane, double position,
                     const ExteriorAttributes& attrs, Route route,
                     double desired_speed_factor = 1.0, bool is_patrol = false);

  // Spawn at the upstream end of `edge` if there is room.
  VehicleId try_spawn_at_start(roadnet::EdgeId edge, const ExteriorAttributes& attrs,
                               Route route, double desired_speed_factor = 1.0,
                               bool is_patrol = false);

  // ---- simulation -----------------------------------------------------------

  void step();
  void run_for(util::SimTime duration);

  // ---- snapshot / restore ---------------------------------------------------
  // Writes the complete engine state (store, free list, lane membership,
  // RNG, counters) into the snapshot's "engine" section. Legal only
  // between steps; throws serve::SnapshotError otherwise. Both are defined
  // in src/serve/snapshot.cpp, next to the engine's field list
  // (serve::SnapshotAccess::visit).
  void save(serve::Snapshot& snap) const;
  // Restores into an engine built over the SAME network and SimConfig
  // (validated; serve::SnapshotError on mismatch), then checks what the
  // field list cannot: the clock is step_count() × dt with room for one
  // more step, every listed vehicle id is live, every lane holds exactly
  // the vehicles on it, and each live vehicle's remaining route connects
  // and its speed factor is positive. Restore-then-continue emits the same
  // event stream as the uninterrupted run, bit for bit.
  void restore(const serve::Snapshot& snap);

  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t step_count() const { return step_count_; }
  [[nodiscard]] double dt() const { return config_.dt; }

  // ---- queries --------------------------------------------------------------

  [[nodiscard]] const roadnet::RoadNetwork& network() const { return net_; }
  // Asserts the id is current (slot occupied by that exact generation).
  // A despawned vehicle stays addressable until its slot is recycled.
  [[nodiscard]] VehicleRef vehicle(VehicleId id) const;
  // Generation-checked lookup: empty when the id is stale (the slot was
  // recycled for a newer vehicle) or out of range.
  [[nodiscard]] std::optional<VehicleRef> find_vehicle(VehicleId id) const;
  // The SoA slot store (read-only). slot_count() == peak concurrent
  // vehicles over the run, NOT the total ever spawned: despawned slots are
  // recycled. Rows whose cold record has `alive == false` are despawned
  // vehicles awaiting reuse.
  [[nodiscard]] const VehicleStore& store() const { return store_; }
  [[nodiscard]] std::size_t vehicle_slot_count() const { return store_.slot_count(); }
  // Dense list of currently-alive vehicle ids (engine iteration order).
  [[nodiscard]] const std::vector<VehicleId>& alive_vehicles() const { return alive_; }
  [[nodiscard]] std::size_t alive_count() const { return alive_.size(); }
  [[nodiscard]] std::uint64_t total_spawned() const { return total_spawned_; }
  // Non-patrol vehicles currently on interior edges — the open-system
  // ground-truth population (oracle). O(1): maintained on
  // spawn/transit/despawn rather than scanned per call.
  [[nodiscard]] std::size_t population_inside() const { return population_inside_; }
  // Total events appended to the per-step buffer over the run.
  [[nodiscard]] std::uint64_t events_emitted() const { return events_emitted_; }
  [[nodiscard]] const std::vector<VehicleId>& lane_vehicles(roadnet::EdgeId edge,
                                                            int lane) const;
  // O(1): per-edge occupancy counter maintained with the lane lists.
  [[nodiscard]] std::size_t vehicles_on_edge(roadnet::EdgeId edge) const {
    return edge_count_[edge.value()];
  }
  [[nodiscard]] double mean_speed() const;
  [[nodiscard]] std::uint64_t total_transits() const { return total_transits_; }
  // Number of non-empty lanes (the step phases iterate exactly these).
  [[nodiscard]] std::size_t occupied_lane_count() const { return occupied_lanes_.size(); }
  // High-water mark of the worklist and the total lane count: the perf
  // report uses their ratio as the sparsity of a scenario.
  [[nodiscard]] std::size_t peak_occupied_lanes() const { return peak_occupied_lanes_; }
  [[nodiscard]] std::size_t total_lanes() const { return lanes_.size(); }
  // Debug validation hook: true when the occupied-lane worklist is sorted,
  // duplicate-free and exactly matches the set of non-empty lanes. O(total
  // lanes) — tests and assertions only, never on the step path.
  [[nodiscard]] bool debug_occupancy_consistent() const;

  [[nodiscard]] util::Rng& rng() { return rng_; }

  // One draw from `id`'s counter-based stream (advances the vehicle's
  // counter). The route planner uses this to key all randomness of a
  // replanning query to the vehicle that asked, which is what keeps a
  // replan's outcome independent of the order lanes are stepped in.
  // A stale/invalid id (direct harness calls on a bare engine) falls back
  // to a stateless hash of the id.
  [[nodiscard]] std::uint64_t draw_for(VehicleId id);

 protected:
  // The engine's field list (src/serve/snapshot.cpp).
  friend struct serve::SnapshotAccess;

  struct LaneRef {
    roadnet::EdgeId edge;
    int lane;
  };
  [[nodiscard]] std::size_t lane_index(roadnet::EdgeId edge, int lane) const;

  // Step phases. Virtual so the differential-testing reference kernel
  // (src/testing/reference_kernel.hpp) can substitute deliberately slow
  // full-scan drivers while sharing the per-lane bodies below — the fast
  // and reference engines then differ ONLY in how they enumerate work,
  // which is exactly the surface the occupied-lane worklist optimizes.
  // Three virtual calls per step; the per-vehicle work dwarfs the dispatch.
  virtual void apply_lane_changes();
  virtual void update_dynamics();
  virtual void process_transits();
  void finish_step();

  // Per-lane / per-node phase bodies shared by the fast drivers above and
  // the reference kernel's full scans. Each is a no-op on an empty lane, so
  // a full scan over all lane indices performs the same per-vehicle work —
  // and consumes the same RNG draws — as the worklist walk.
  void lane_change_pass(std::uint32_t lane_idx);
  // IDM integration of one lane: dynamics_lanes<1>.
  void dynamics_pass(std::uint32_t lane_idx);
  // IDM integration of the K lanes lanes[0..K), stepped round-robin over
  // their vehicles (front to back within each lane). One lane's update is
  // a chain — every follower reads its leader's new position and speed —
  // so interleaving independent lanes lets the CPU overlap K chains.
  // Lanes are independent during dynamics (cross-lane room comes from the
  // entry-space snapshot, replans draw from per-vehicle streams), so the
  // result is bit-identical to integrating the lanes one at a time.
  // Defined and instantiated in sim_engine.cpp.
  template <std::size_t K>
  void dynamics_lanes(const std::uint32_t* lanes);
  // Appends the lane's front vehicle to its node's candidate list (or
  // despawns it on an outbound gateway); registers the node in
  // active_nodes_ on first candidate.
  void collect_transit_candidates(std::uint32_t lane_idx);
  // Admits this step's candidates at `node` (ordering, admission budget,
  // events) and clears the node's candidate list.
  void admit_at_node(roadnet::NodeId node);

  // Snapshot of per-lane entry room (rearmost position − length) for every
  // occupied lane, taken at the top of the dynamics phase. dynamics_pass
  // reads next-edge room from this snapshot instead of live positions, so
  // the stop-line decision of a lane's front vehicle cannot depend on
  // whether the next edge's lanes were integrated before or after it (the
  // lane groups of dynamics_lanes and the reference kernel's full scan
  // visit lanes in different orders). Must be called by every
  // update_dynamics driver (the reference kernel's full scan included)
  // before the first dynamics_pass.
  void prepare_entry_space();
  // pick_entry_lane against the snapshot (same tie-breaks); admission and
  // spawning keep using the live pick_entry_lane below.
  [[nodiscard]] int snapshot_entry_lane(roadnet::EdgeId edge, double len) const;

  // True if lane `lane` of `edge` has room for a vehicle of length `len`
  // entering at position 0.
  [[nodiscard]] bool entry_has_room(roadnet::EdgeId edge, int lane, double len) const;
  [[nodiscard]] int pick_entry_lane(roadnet::EdgeId edge, double len) const;
  // Next interior/gateway edge the vehicle in `slot` will take from
  // `node`; replans via the route planner when exhausted. Returns invalid
  // only if the vehicle must despawn (should not happen at interior nodes).
  roadnet::EdgeId ensure_next_edge(std::uint32_t slot, roadnet::NodeId node);

  void remove_from_lane(VehicleId id);
  void insert_into_lane(VehicleId id, roadnet::EdgeId edge, int lane, double position);

  // Occupied-lane worklist bookkeeping (0 <-> >0 transitions only).
  void mark_lane_occupied(std::size_t index);
  void mark_lane_empty(std::size_t index);

  // Slot allocation: pop the free list (bumping the generation) or grow.
  [[nodiscard]] VehicleId allocate_slot();
  void despawn(std::uint32_t slot, roadnet::EdgeId edge);

  template <typename Event>
  void push_event(Event&& event) {
    ++events_emitted_;
    events_.push(std::forward<Event>(event));
  }

  const roadnet::RoadNetwork& net_;
  SimConfig config_;
  // The IDM parameter set every vehicle drives with, and its braking
  // scale 2*sqrt(a*b), computed once.
  const IdmParams idm_{};
  const double idm_braking_scale_ = idm_braking_scale(idm_);
  util::Rng rng_;
  util::SimTime now_;
  std::uint64_t step_count_ = 0;
  std::uint64_t total_transits_ = 0;

  // Slot + generation vehicle store, struct-of-arrays (vehicle_store.hpp):
  // hot kinematic fields in per-field contiguous arrays indexed by
  // VehicleId::slot(), cold records alongside. A despawned slot goes to
  // `pending_free_` and is recycled (generation bumped) only after the
  // step's event flush, so buffered events never see a reused slot. Size
  // is bounded by the peak concurrent population, not the total spawned.
  VehicleStore store_;
  std::vector<std::uint32_t> free_slots_;    // recycled slots, LIFO
  std::vector<std::uint32_t> pending_free_;  // freed this step, recycled post-flush
  std::vector<VehicleId> alive_;             // dense alive index (swap-remove)
  std::vector<std::uint32_t> alive_pos_;     // slot -> index into alive_
  std::size_t population_inside_ = 0;        // maintained O(1) counter
  std::uint64_t total_spawned_ = 0;
  std::uint64_t entry_seq_counter_ = 0;

  // lane_vehicles_[lane_offset(edge) + lane] sorted by position ascending
  // (back() is the front-most vehicle).
  std::vector<std::vector<VehicleId>> lanes_;
  std::vector<std::size_t> lane_offset_;  // per edge
  std::vector<LaneRef> lane_refs_;        // lane index -> (edge, lane)

  // Indices of non-empty lanes, ascending — i.e. segment-major scan order.
  // Phases that mutate occupancy mid-iteration (lane changes, transits)
  // walk a snapshot in scratch_lanes_ instead of the live list.
  std::vector<std::uint32_t> occupied_lanes_;
  std::vector<std::uint32_t> scratch_lanes_;
  std::size_t peak_occupied_lanes_ = 0;

  // Per-vehicle stream key base (see VehicleCold::rng_key).
  std::uint64_t vehicle_stream_seed_ = 0;
  // Per-lane entry-room snapshot for the dynamics phase; entries are valid
  // only for lanes occupied when prepare_entry_space() ran (empty lanes
  // are detected live — membership never changes during dynamics).
  std::vector<double> entry_space_;
  std::vector<std::uint32_t> edge_count_;      // vehicles per edge (all lanes)
  std::vector<roadnet::NodeId> active_nodes_;  // nodes with transit candidates

  std::vector<SimObserver*> observers_;
  RoutePlanner route_planner_;
  EventBuffer events_;
  std::uint64_t events_emitted_ = 0;
  util::PerfCollector* perf_ = nullptr;

  // Scratch: transit candidates per step.
  struct Candidate {
    VehicleId veh;
    roadnet::EdgeId from_edge;
    double overflow;  // how far past the edge end (earlier arrival = larger)
  };
  std::vector<std::vector<Candidate>> node_candidates_;  // per intersection
  std::vector<roadnet::EdgeId> used_approaches_;         // per-node admission scratch
};

}  // namespace ivc::traffic

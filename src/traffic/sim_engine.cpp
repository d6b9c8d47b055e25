#include "traffic/sim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace ivc::traffic {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Minimum bumper-to-bumper separation enforced by the overlap clamp.
constexpr double kMinSeparation = 0.1;
// Where a blocked front vehicle stops, measured back from the segment end.
constexpr double kStopMargin = 0.5;
// Lanes the serial dynamics phase integrates round-robin (dynamics_lanes).
// Four independent update chains cover the latency of one vehicle's
// dependent loads and divisions; eight measured no better.
constexpr std::size_t kDynamicsGroup = 4;
}  // namespace

SimEngine::SimEngine(const roadnet::RoadNetwork& net, SimConfig config)
    : net_(net),
      config_(config),
      rng_(util::derive_seed(config.seed, "sim-engine")),
      vehicle_stream_seed_(util::derive_seed(config.seed, "vehicle-streams")) {
  IVC_ASSERT(config_.dt > 0.0);
  IVC_ASSERT_MSG(config_.threads == 1, "the engine steps serially: SimConfig::threads must be 1");
  lane_offset_.resize(net_.num_segments());
  std::size_t total_lanes = 0;
  for (const auto& seg : net_.segments()) {
    lane_offset_[seg.id.value()] = total_lanes;
    for (int lane = 0; lane < seg.lanes; ++lane) lane_refs_.push_back({seg.id, lane});
    total_lanes += static_cast<std::size_t>(seg.lanes);
  }
  lanes_.resize(total_lanes);
  edge_count_.assign(net_.num_segments(), 0);
  entry_space_.assign(total_lanes, 0.0);
  node_candidates_.resize(net_.num_intersections());
}

void SimEngine::add_observer(SimObserver* observer) {
  IVC_ASSERT(observer != nullptr);
  observers_.push_back(observer);
}

void SimEngine::set_route_planner(RoutePlanner planner) {
  route_planner_ = std::move(planner);
}

std::size_t SimEngine::lane_index(roadnet::EdgeId edge, int lane) const {
  IVC_ASSERT(edge.valid());
  IVC_ASSERT(lane >= 0 && lane < net_.segment(edge).lanes);
  return lane_offset_[edge.value()] + static_cast<std::size_t>(lane);
}

const std::vector<VehicleId>& SimEngine::lane_vehicles(roadnet::EdgeId edge, int lane) const {
  return lanes_[lane_index(edge, lane)];
}

VehicleRef SimEngine::vehicle(VehicleId id) const {
  IVC_ASSERT(id.valid() && id.slot() < store_.slot_count());
  IVC_ASSERT_MSG(store_.cold[id.slot()].id == id, "stale vehicle id (slot recycled)");
  return VehicleRef(store_, id.slot());
}

std::optional<VehicleRef> SimEngine::find_vehicle(VehicleId id) const {
  if (!id.valid() || id.slot() >= store_.slot_count()) return std::nullopt;
  if (store_.cold[id.slot()].id != id) return std::nullopt;
  return VehicleRef(store_, id.slot());
}

std::uint64_t SimEngine::draw_for(VehicleId id) {
  if (id.valid() && id.slot() < store_.slot_count() && store_.cold[id.slot()].id == id) {
    VehicleCold& cold = store_.cold[id.slot()];
    return util::counter_mix(cold.rng_key, cold.rng_draws++);
  }
  // Stale or never-spawned id (direct harness calls): stateless hash.
  return util::derive_seed(vehicle_stream_seed_, id.value());
}

double SimEngine::mean_speed() const {
  double sum = 0.0;
  for (const VehicleId id : alive_) sum += store_.speed[id.slot()];
  return alive_.empty() ? 0.0 : sum / static_cast<double>(alive_.size());
}

void SimEngine::mark_lane_occupied(std::size_t index) {
  const auto value = static_cast<std::uint32_t>(index);
  const auto it = std::lower_bound(occupied_lanes_.begin(), occupied_lanes_.end(), value);
  occupied_lanes_.insert(it, value);
  peak_occupied_lanes_ = std::max(peak_occupied_lanes_, occupied_lanes_.size());
}

void SimEngine::mark_lane_empty(std::size_t index) {
  const auto value = static_cast<std::uint32_t>(index);
  const auto it = std::lower_bound(occupied_lanes_.begin(), occupied_lanes_.end(), value);
  IVC_ASSERT(it != occupied_lanes_.end() && *it == value);
  occupied_lanes_.erase(it);
}

bool SimEngine::debug_occupancy_consistent() const {
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].empty()) expected.push_back(static_cast<std::uint32_t>(i));
  }
  if (expected != occupied_lanes_) return false;  // same set, same (sorted) order
  for (const auto& seg : net_.segments()) {
    std::size_t n = 0;
    for (int lane = 0; lane < seg.lanes; ++lane) {
      n += lanes_[lane_index(seg.id, lane)].size();
    }
    if (n != edge_count_[seg.id.value()]) return false;
  }
  return true;
}

void SimEngine::remove_from_lane(VehicleId id) {
  const std::uint32_t slot = id.slot();
  const std::size_t index = lane_index(store_.edge[slot], store_.lane[slot]);
  auto& lane = lanes_[index];
  const auto it = std::find(lane.begin(), lane.end(), id);
  IVC_ASSERT(it != lane.end());
  lane.erase(it);
  if (lane.empty()) mark_lane_empty(index);
  --edge_count_[store_.edge[slot].value()];
}

void SimEngine::insert_into_lane(VehicleId id, roadnet::EdgeId edge, int lane,
                                 double position) {
  const std::uint32_t slot = id.slot();
  store_.edge[slot] = edge;
  store_.lane[slot] = lane;
  store_.position[slot] = position;
  const std::size_t index = lane_index(edge, lane);
  auto& vehicles = lanes_[index];
  if (vehicles.empty()) mark_lane_occupied(index);
  ++edge_count_[edge.value()];
  const auto it = std::lower_bound(vehicles.begin(), vehicles.end(), position,
                                   [this](VehicleId vid, double pos) {
                                     return store_.position[vid.slot()] < pos;
                                   });
  vehicles.insert(it, id);
}

VehicleId SimEngine::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    // The dead record still carries the previous id; bump its generation.
    return VehicleId{slot, store_.cold[slot].id.generation() + 1};
  }
  const std::uint32_t slot = store_.push_slot();
  alive_pos_.push_back(0);
  return VehicleId{slot, 0};
}

VehicleId SimEngine::spawn_at(roadnet::EdgeId edge, int lane, double position,
                              const ExteriorAttributes& attrs, Route route,
                              double desired_speed_factor, bool is_patrol) {
  const auto& seg = net_.segment(edge);
  IVC_ASSERT(lane >= 0 && lane < seg.lanes);
  IVC_ASSERT(position >= 0.0 && position < seg.length);

  const double len = body_length(attrs.type);
  // Validate the jam gap against in-lane neighbors.
  const auto& lane_list = lane_vehicles(edge, lane);
  const auto it = std::lower_bound(lane_list.begin(), lane_list.end(), position,
                                   [this](VehicleId vid, double pos) {
                                     return store_.position[vid.slot()] < pos;
                                   });
  if (it != lane_list.end()) {
    const std::uint32_t ahead = it->slot();
    if (store_.position[ahead] - store_.length[ahead] - position < kMinSeparation) {
      return VehicleId::invalid();
    }
  }
  if (it != lane_list.begin()) {
    const std::uint32_t behind = (it - 1)->slot();
    if (position - len - store_.position[behind] < kMinSeparation) {
      return VehicleId::invalid();
    }
  }

  const VehicleId id = allocate_slot();
  const std::uint32_t slot = id.slot();
  // Fresh hot row + cold record: a recycled slot must not leak the previous
  // generation's kinematics, route or RNG counter into the new vehicle.
  store_.reset_slot(slot);
  VehicleCold& cold = store_.cold[slot];
  cold.id = id;
  cold.attrs = attrs;
  cold.alive = true;
  cold.route = std::move(route);
  cold.entry_seq = ++entry_seq_counter_;
  // Counter-based stream keyed by the generational id: every draw the
  // vehicle will ever make depends only on its own history.
  cold.rng_key = util::derive_seed(vehicle_stream_seed_, id.value());
  cold.rng_draws = 0;
  store_.is_patrol[slot] = is_patrol ? 1 : 0;
  store_.length[slot] = len;
  store_.desired_speed_factor[slot] = desired_speed_factor;

  alive_pos_[slot] = static_cast<std::uint32_t>(alive_.size());
  alive_.push_back(id);
  ++total_spawned_;
  if (!is_patrol && !seg.is_gateway()) ++population_inside_;

  insert_into_lane(id, edge, lane, position);
  push_event(SpawnEvent{now_, id, edge});
  return id;
}

bool SimEngine::entry_has_room(roadnet::EdgeId edge, int lane, double len) const {
  const auto& vehicles = lane_vehicles(edge, lane);
  if (vehicles.empty()) return true;
  const std::uint32_t rear = vehicles.front().slot();
  return store_.position[rear] - store_.length[rear] - len >= kMinSeparation + 1.0;
}

int SimEngine::pick_entry_lane(roadnet::EdgeId edge, double len) const {
  const auto& seg = net_.segment(edge);
  int best = -1;
  double best_space = -kInf;
  for (int lane = 0; lane < seg.lanes; ++lane) {
    if (!entry_has_room(edge, lane, len)) continue;
    const auto& vehicles = lane_vehicles(edge, lane);
    const double space =
        vehicles.empty() ? seg.length
                         : store_.position[vehicles.front().slot()] -
                               store_.length[vehicles.front().slot()];
    if (space > best_space) {
      best_space = space;
      best = lane;
    }
  }
  return best;
}

VehicleId SimEngine::try_spawn_at_start(roadnet::EdgeId edge, const ExteriorAttributes& attrs,
                                        Route route, double desired_speed_factor,
                                        bool is_patrol) {
  const double len = body_length(attrs.type);
  const int lane = pick_entry_lane(edge, len);
  if (lane < 0) return VehicleId::invalid();
  return spawn_at(edge, lane, 0.0, attrs, std::move(route), desired_speed_factor, is_patrol);
}

roadnet::EdgeId SimEngine::ensure_next_edge(std::uint32_t slot, roadnet::NodeId node) {
  VehicleCold& cold = store_.cold[slot];
  roadnet::EdgeId next = cold.route.peek();
  if (!next.valid()) {
    if (route_planner_) {
      Route replanned = route_planner_(cold.id, node);
      if (!replanned.edges.empty()) cold.route = std::move(replanned);
    }
    next = cold.route.peek();
    if (!next.valid()) {
      // Fallback: roam onto a uniformly random out-edge so traffic never
      // stalls even without a planner (unit-test configurations). Drawn
      // from the vehicle's own counter-based stream — this runs inside the
      // dynamics phase, where a shared sequential generator would make the
      // pick depend on which lane drew first.
      const auto& out = net_.intersection(node).out_edges;
      IVC_ASSERT_MSG(!out.empty(), "dead-end node reached");
      util::StreamRng stream(cold.rng_key, cold.rng_draws);
      cold.route.edges = {out[stream.uniform_index(out.size())]};
      cold.rng_draws = stream.draws();
      cold.route.next = 0;
      next = cold.route.peek();
    }
  }
  IVC_ASSERT_MSG(net_.segment(next).from == node || net_.segment(next).is_inbound_gateway(),
                 "route continuity violated");
  return next;
}

void SimEngine::apply_lane_changes() {
  if (!config_.allow_lane_change) return;
  // Snapshot the worklist: a move into a previously-empty lane must not
  // grow the iteration space mid-phase (the mover is cooldown-gated, so
  // skipping its new lane is equivalent to the full scan visiting it).
  scratch_lanes_.assign(occupied_lanes_.begin(), occupied_lanes_.end());
  for (const std::uint32_t index : scratch_lanes_) lane_change_pass(index);
}

void SimEngine::lane_change_pass(std::uint32_t index) {
  auto& lane_list = lanes_[index];
  // A vehicle alone in its lane never wants out (`wants_out` needs a
  // close leader), so only multi-vehicle lanes can produce moves.
  if (lane_list.size() < 2) return;
  const LaneRef ref = lane_refs_[index];
  const auto& seg = net_.segment(ref.edge);
  if (seg.lanes < 2) return;
  const int lane = ref.lane;
  // Hot SoA arrays: the sweep below reads only these per vehicle.
  const double* const pos = store_.position.data();
  const double* const spd = store_.speed.data();
  const double* const len = store_.length.data();
  // Apply with re-validation, front-most first, so a move doesn't
  // invalidate the decision of the vehicle behind it.
  for (std::size_t i = lane_list.size(); i-- > 0;) {
    const std::uint32_t slot = lane_list[i].slot();
    if (store_.lane_change_cooldown[slot] > 0) continue;
    if (store_.is_patrol[slot] != 0) continue;  // patrol keeps its lane: stable marker relay
    if (pos[slot] > seg.length - config_.intersection_lookahead) continue;
    // Current leader gap.
    double lead_gap = kInf;
    double lead_speed = kInf;
    if (i + 1 < lane_list.size()) {
      const std::uint32_t leader = lane_list[i + 1].slot();
      lead_gap = pos[leader] - len[leader] - pos[slot];
      lead_speed = spd[leader];
    }
    const double desired = seg.speed_limit * store_.desired_speed_factor[slot];
    const bool wants_out =
        lead_gap < spd[slot] * idm_.headway * 1.5 && lead_speed < 0.85 * desired;
    if (!wants_out) continue;

    int best_lane = -1;
    double best_gain = lead_gap;
    for (const int target : {lane - 1, lane + 1}) {
      if (target < 0 || target >= seg.lanes) continue;
      const auto& tgt = lane_vehicles(seg.id, target);
      const auto it = std::lower_bound(tgt.begin(), tgt.end(), pos[slot],
                                       [pos](VehicleId vid, double p) {
                                         return pos[vid.slot()] < p;
                                       });
      double tgt_lead_gap = kInf;
      if (it != tgt.end()) {
        const std::uint32_t tl = it->slot();
        tgt_lead_gap = pos[tl] - len[tl] - pos[slot];
      }
      double tgt_follow_gap = kInf;
      double follower_speed = 0.0;
      if (it != tgt.begin()) {
        const std::uint32_t tf = (it - 1)->slot();
        tgt_follow_gap = pos[slot] - len[slot] - pos[tf];
        follower_speed = spd[tf];
      }
      const bool safe = tgt_lead_gap > idm_.min_gap + 1.0 &&
                        tgt_follow_gap > idm_.min_gap + 0.5 * follower_speed;
      if (safe && tgt_lead_gap > best_gain * 1.2) {
        best_gain = tgt_lead_gap;
        best_lane = target;
      }
    }
    if (best_lane >= 0) {
      const VehicleId vid = lane_list[i];
      const double p = pos[slot];
      remove_from_lane(vid);
      insert_into_lane(vid, seg.id, best_lane, p);
      store_.lane_change_cooldown[slot] = 10;
      // `remove_from_lane` erased entry i from `lane_list`; the
      // descending index loop only visits indices below i afterwards,
      // so the erase can neither skip nor revisit a vehicle.
    }
  }
}

void SimEngine::prepare_entry_space() {
  // O(occupied lanes): one read of each occupied lane's rearmost vehicle.
  for (const std::uint32_t index : occupied_lanes_) {
    const std::uint32_t rear = lanes_[index].front().slot();
    entry_space_[index] = store_.position[rear] - store_.length[rear];
  }
}

int SimEngine::snapshot_entry_lane(roadnet::EdgeId edge, double len) const {
  const auto& seg = net_.segment(edge);
  const std::size_t base = lane_offset_[edge.value()];
  int best = -1;
  double best_space = -kInf;
  for (int lane = 0; lane < seg.lanes; ++lane) {
    const std::size_t index = base + static_cast<std::size_t>(lane);
    // Lane membership never changes during dynamics, so empty() is stable;
    // positions do change, which is why occupied lanes read the snapshot.
    const bool empty = lanes_[index].empty();
    // Mirrors entry_has_room/pick_entry_lane: an empty lane always has
    // room; an occupied one needs the jam gap behind its rearmost vehicle.
    const double space = empty ? seg.length : entry_space_[index];
    if (!empty && space - len < kMinSeparation + 1.0) continue;
    if (space > best_space) {
      best_space = space;
      best = lane;
    }
  }
  return best;
}

void SimEngine::update_dynamics() {
  prepare_entry_space();
  // The live worklist is safe to iterate directly (dynamics never changes
  // lane membership), in groups of kDynamicsGroup lanes integrated
  // round-robin, then a one-lane tail.
  const std::uint32_t* const work = occupied_lanes_.data();
  const std::size_t n = occupied_lanes_.size();
  std::size_t w = 0;
  for (; w + kDynamicsGroup <= n; w += kDynamicsGroup) {
    // On a city-scale map the occupied lanes are scattered across a lane
    // table far larger than cache; overlap the next group's loads with
    // this group's integration.
    for (std::size_t k = w + kDynamicsGroup; k < std::min(n, w + 2 * kDynamicsGroup); ++k) {
      __builtin_prefetch(lanes_[work[k]].data());
      __builtin_prefetch(&net_.segment(lane_refs_[work[k]].edge));
    }
    dynamics_lanes<kDynamicsGroup>(work + w);
  }
  for (; w < n; ++w) dynamics_lanes<1>(work + w);
}

void SimEngine::dynamics_pass(std::uint32_t index) { dynamics_lanes<1>(&index); }

template <std::size_t K>
void SimEngine::dynamics_lanes(const std::uint32_t* lanes) {
  const double dt = config_.dt;
  // Hot SoA arrays: the integration below reads exactly these, gathered by
  // slot through the lane lists. Raw pointers are safe — nothing on the
  // dynamics path grows the store.
  double* const pos = store_.position.data();
  double* const spd = store_.speed.data();
  const double* const len = store_.length.data();
  const double* const dsf = store_.desired_speed_factor.data();

  // One cursor per lane. Front-to-back within a lane, so each follower
  // clamps against its leader's *new* position (sequential update;
  // collision-free by construction); the leader's new state is carried in
  // the cursor instead of being re-read through the lane list.
  struct Cursor {
    const VehicleId* ids;  // the lane list, rear first
    std::size_t left;      // vehicles not yet integrated; ids[left - 1] is next
    const roadnet::Segment* seg;
    bool has_leader;
    double lead_pos;
    double lead_speed;
    double lead_len;
  };
  Cursor lane[K];
  std::size_t rounds = 0;
  for (std::size_t k = 0; k < K; ++k) {
    const std::vector<VehicleId>& list = lanes_[lanes[k]];
    lane[k] = Cursor{list.data(), list.size(), &net_.segment(lane_refs_[lanes[k]].edge),
                     false, 0.0, 0.0, 0.0};
    rounds = std::max(rounds, list.size());
  }

  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < K; ++k) {
      Cursor& c = lane[k];
      if (c.left == 0) continue;
      const std::uint32_t slot = c.ids[--c.left].slot();
      const roadnet::Segment& seg = *c.seg;
      const double x = pos[slot];
      // Vehicles already past the end wait for admission, standing still.
      double p = x;
      double v = 0.0;
      if (x < seg.length) {
        double gap = kInf;
        double lead_speed = 0.0;
        if (c.has_leader) {
          gap = std::min(c.lead_pos, seg.length) - c.lead_len - x;
          lead_speed = c.lead_speed;
        } else if (!seg.is_outbound_gateway() &&
                   x > seg.length - config_.intersection_lookahead) {
          // Front vehicle near the intersection: check whether the next
          // edge can take it; if not, treat the stop line as a standing
          // obstacle. An empty next edge always has room (the entry pick
          // would return lane 0), so the lane scan is only needed when it
          // is occupied. Room is read from the pre-dynamics entry-space
          // snapshot: the next edge's lanes may be integrated earlier, in
          // this lane group or later, and this decision must not depend on
          // which.
          const roadnet::EdgeId next = ensure_next_edge(slot, seg.to);
          if (edge_count_[next.value()] != 0 && snapshot_entry_lane(next, len[slot]) < 0) {
            gap = (seg.length - kStopMargin) - x;
            lead_speed = 0.0;
          }
        }
        const double speed = spd[slot];
        const double desired = seg.speed_limit * dsf[slot];
        const double accel =
            idm_acceleration(speed, desired, gap, speed - lead_speed, idm_, idm_braking_scale_);
        v = std::clamp(speed + accel * dt, 0.0, desired);
        p = x + v * dt;
        // Overlap clamp against the (already updated) leader. The leader
        // may be waiting for admission beyond the segment end; the
        // follower has passed no admission check, so its limit is also
        // capped at the stop line (mirroring the std::min(leader position,
        // seg.length) the IDM gap above uses). Only the lane's front
        // vehicle may cross seg.length and become a transit candidate.
        // A front vehicle blocked by its next edge stops at the stop line.
        double limit = kInf;
        if (c.has_leader) {
          limit = std::min(c.lead_pos - c.lead_len - kMinSeparation, seg.length - kStopMargin);
        } else if (std::isfinite(gap)) {
          limit = seg.length - kStopMargin;
        }
        if (p > limit) {
          p = std::max(x, limit);
          v = (p - x) / dt;
        }
      }
      pos[slot] = p;
      spd[slot] = v;
      c.has_leader = true;
      c.lead_pos = p;
      c.lead_speed = v;
      c.lead_len = len[slot];
    }
  }
}

void SimEngine::process_transits() {
  // Gateway despawns mutate the worklist mid-scan, so walk a snapshot.
  // Ascending lane-index order keeps despawn events in the segment-major
  // order the full scan emitted.
  scratch_lanes_.assign(occupied_lanes_.begin(), occupied_lanes_.end());
  for (const std::uint32_t index : scratch_lanes_) collect_transit_candidates(index);

  // Only intersections that actually received a candidate, in node-id
  // order (matching the old every-intersection sweep, minus the no-ops).
  std::sort(active_nodes_.begin(), active_nodes_.end());
  for (const roadnet::NodeId node_id : active_nodes_) admit_at_node(node_id);
  active_nodes_.clear();
}

void SimEngine::collect_transit_candidates(std::uint32_t index) {
  const auto& lane_list = lanes_[index];
  if (lane_list.empty()) return;
  const auto& seg = net_.segment(lane_refs_[index].edge);
  const VehicleId front = lane_list.back();
  const std::uint32_t slot = front.slot();
  if (store_.position[slot] < seg.length) return;
  if (seg.is_outbound_gateway()) {
    // Reached the outside world: despawn.
    despawn(slot, seg.id);
    return;
  }
  auto& candidates = node_candidates_[seg.to.value()];
  if (candidates.empty()) active_nodes_.push_back(seg.to);
  candidates.push_back({front, seg.id, store_.position[slot] - seg.length});
}

void SimEngine::admit_at_node(roadnet::NodeId node_id) {
  const auto& node = net_.intersection(node_id);
  auto& candidates = node_candidates_[node.id.value()];
  // Earlier arrivals (larger overflow) first; deterministic tie-break.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.overflow != b.overflow) return a.overflow > b.overflow;
    return a.veh < b.veh;
  });

  // Admission budget: extended model (or any roundabout) admits one
  // vehicle per approach per step; the simple model admits a single
  // vehicle per intersection per step ("only one vehicle is allowed to
  // enter the intersection and make the turn").
  const bool per_approach =
      config_.multi_admission || node.kind == roadnet::IntersectionKind::Roundabout;
  // Approaches admitted this step; a plain vector beats a hash set at the
  // handful of approaches an intersection has.
  used_approaches_.clear();
  int admitted = 0;
  for (const Candidate& cand : candidates) {
    if (!per_approach && admitted >= 1) break;
    if (per_approach && std::find(used_approaches_.begin(), used_approaches_.end(),
                                  cand.from_edge) != used_approaches_.end()) {
      continue;
    }

    const std::uint32_t slot = cand.veh.slot();
    const roadnet::EdgeId next = ensure_next_edge(slot, node.id);
    // Empty next edge: pick_entry_lane would scan all lanes and settle
    // on lane 0; the counter makes that the common sparse case O(1).
    const int entry_lane = edge_count_[next.value()] == 0
                               ? 0
                               : pick_entry_lane(next, store_.length[slot]);
    if (entry_lane < 0) continue;  // no room; wait at the stop line

    VehicleCold& cold = store_.cold[slot];
    const std::uint64_t from_entry_seq = cold.entry_seq;
    const bool was_inside = !net_.segment(cand.from_edge).is_gateway();
    const bool now_inside = !net_.segment(next).is_gateway();
    remove_from_lane(cand.veh);
    cold.route.advance();
    insert_into_lane(cand.veh, next, entry_lane, 0.0);
    cold.entry_seq = ++entry_seq_counter_;
    ++admitted;
    used_approaches_.push_back(cand.from_edge);
    ++total_transits_;
    if (store_.is_patrol[slot] == 0 && was_inside != now_inside) {
      if (now_inside) {
        ++population_inside_;
      } else {
        --population_inside_;
      }
    }

    push_event(TransitEvent{now_, cand.veh, node.id, cand.from_edge, next,
                            from_entry_seq});
  }
  candidates.clear();
}

void SimEngine::despawn(std::uint32_t slot, roadnet::EdgeId edge) {
  VehicleCold& cold = store_.cold[slot];
  IVC_ASSERT(cold.alive);
  remove_from_lane(cold.id);
  cold.alive = false;
  if (store_.is_patrol[slot] == 0 && !net_.segment(store_.edge[slot]).is_gateway()) {
    --population_inside_;
  }
  // Swap-remove from the dense alive index.
  const std::uint32_t pos = alive_pos_[slot];
  alive_[pos] = alive_.back();
  alive_pos_[alive_[pos].slot()] = pos;
  alive_.pop_back();
  // The slot is recycled only after this step's event flush, so buffered
  // events (and observers handling them) can still resolve the record.
  pending_free_.push_back(slot);
  push_event(DespawnEvent{now_, cold.id, edge});
}

void SimEngine::finish_step() {
  {
    util::PerfTimer timer(perf_, util::PerfPhase::StepBookkeeping);
    std::int32_t* const cooldown = store_.lane_change_cooldown.data();
    for (const VehicleId id : alive_) {
      const std::uint32_t slot = id.slot();
      if (cooldown[slot] > 0) --cooldown[slot];
    }
    now_ += util::SimTime::from_seconds(config_.dt);
    ++step_count_;
  }
  {
    util::PerfTimer timer(perf_, util::PerfPhase::EventFlush);
    events_.flush(observers_);
    // Now that no buffered event can reference them, freed slots become
    // reusable (their generation is bumped at the next allocation).
    free_slots_.insert(free_slots_.end(), pending_free_.begin(), pending_free_.end());
    pending_free_.clear();
  }
}

void SimEngine::step() {
  {
    util::PerfTimer timer(perf_, util::PerfPhase::LaneChange);
    apply_lane_changes();
  }
  {
    util::PerfTimer timer(perf_, util::PerfPhase::Dynamics);
    update_dynamics();
  }
  {
    util::PerfTimer timer(perf_, util::PerfPhase::Transits);
    process_transits();
  }
  finish_step();
}

void SimEngine::run_for(util::SimTime duration) {
  const util::SimTime end = now_ + duration;
  while (now_ < end) step();
}

}  // namespace ivc::traffic

// The distributed counting protocol (paper Algorithms 1-5), system view.
//
// CountingProtocol subscribes to the traffic engine and drives every
// checkpoint's state machine from observable events only:
//
//   on_transit  — the camera + V2I exchange window of a vehicle crossing an
//                 intersection. In order: (A) deposit carried messages,
//                 (B) marker arrival (activate / stop, Alg. 1 ph. 3-4, and
//                 apply the carrier's overtake tally, Alg. 3), (C) phase-5
//                 counting incl. open-system interaction (Alg. 5),
//                 (D) interaction exit (-1 for counted leavers),
//                 (E) marker handoff to the departing vehicle (Alg. 1 ph. 2,
//                 lossy with -1 compensation per Alg. 3), (F) message pickup
//                 for the store-carry-forward transport (Alg. 2/4).
//                 Overtakes of a marker carrier (Alg. 3 lines 5-8) settle
//                 here too, from entry sequence numbers (steps B0 and B).
//                 We apply the ±1 tally for *any* countable vehicle
//                 crossing the marker, which extends the paper's two rules
//                 to re-passes and to lossy-escapee interactions
//                 (DESIGN.md §2).
//
// The same class implements the collection (Alg. 2/4): counter reports and
// tree-acks are routed checkpoint-to-checkpoint by handing them to vehicles
// driving toward the next hop; patrol cars ferry messages that traffic has
// left stranded (one-way predecessors, orphan segments).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "counting/checkpoint.hpp"
#include "counting/config.hpp"
#include "counting/oracle.hpp"
#include "surveillance/recognizer.hpp"
#include "traffic/sim_engine.hpp"
#include "util/rng.hpp"
#include "v2x/channel.hpp"
#include "v2x/obu.hpp"

namespace ivc::serve {
struct SnapshotAccess;
}

namespace ivc::counting {

struct ProtocolStats {
  std::uint64_t count_events = 0;
  std::uint64_t labels_issued = 0;
  std::uint64_t label_handoff_failures = 0;
  std::uint64_t activations_by_label = 0;
  std::uint64_t markers_consumed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t message_pickup_failures = 0;
  std::uint64_t patrol_relays = 0;
  std::uint64_t overtake_events = 0;
  std::uint64_t interaction_entries = 0;
  std::uint64_t interaction_exits = 0;
};

class CountingProtocol final : public traffic::SimObserver {
 public:
  CountingProtocol(traffic::SimEngine& engine, ProtocolConfig config);

  // ---- setup ---------------------------------------------------------------
  // Seeds are both counting initiators and data sinks (paper Sec. III-C).
  void designate_seeds(std::vector<roadnet::NodeId> seeds);
  // Uniformly random distinct seeds, as in the paper's experiments.
  std::vector<roadnet::NodeId> choose_random_seeds(std::size_t count);
  void set_oracle(Oracle* oracle) { oracle_ = oracle; }
  // Activate the seeds at the current simulation time.
  void start();

  // ---- SimObserver ----------------------------------------------------------
  void on_transit(const traffic::TransitEvent& event) override;
  void on_despawn(const traffic::DespawnEvent& event) override;

  // ---- progress & results ----------------------------------------------------
  [[nodiscard]] const Checkpoint& checkpoint(roadnet::NodeId node) const;
  [[nodiscard]] const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }
  [[nodiscard]] const std::vector<roadnet::NodeId>& seeds() const { return seeds_; }
  [[nodiscard]] bool started() const { return started_; }

  // The global aggregates below are O(1): the protocol keeps them current
  // where a checkpoint's count or state changes, and
  // debug_aggregates_consistent() recomputes them by full scans.
  [[nodiscard]] std::size_t active_count() const { return aggregates_.active; }
  [[nodiscard]] bool all_active() const { return aggregates_.active == checkpoints_.size(); }
  // Every checkpoint active and no non-interaction direction still
  // counting: the closed-system convergence of Alg. 3, equally the
  // open-system "complete status" of Alg. 5 (Corollary 1).
  [[nodiscard]] bool all_stable() const { return aggregates_.stable == checkpoints_.size(); }
  // Collection (Alg. 2/4) finished: every seed holds its tree total.
  [[nodiscard]] bool collection_complete() const;
  // No marker in flight or pending: together with all_stable this is the
  // point where every compensation has landed and totals are exact.
  [[nodiscard]] bool quiescent() const {
    return all_stable() && aggregates_.markers_in_flight == 0;
  }

  // Live global view: sum of all local views (the distributed result).
  [[nodiscard]] std::int64_t live_total() const { return aggregates_.live_total; }
  // Sum of the seed tree totals (requires collection_complete()).
  [[nodiscard]] std::int64_t collected_total() const;

  // Checkpoints whose published state (local total, active, stable) may
  // have changed since the last clear_changed(), each listed once, in
  // first-change order. A per-checkpoint flag deduplicates the list, so it
  // never outgrows the checkpoint count even when nobody drains it.
  [[nodiscard]] const std::vector<roadnet::NodeId>& changed() const { return changed_; }
  void clear_changed();
  // Full-scan recount of every running aggregate and of the changed
  // list's bookkeeping; true when they all agree (tests, differential runs).
  [[nodiscard]] bool debug_aggregates_consistent() const;

  [[nodiscard]] const ProtocolStats& stats() const { return stats_; }
  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] v2x::ObuRegistry& obus() { return obus_; }
  [[nodiscard]] const v2x::Channel& channel() const { return channel_; }
  [[nodiscard]] const surveillance::Recognizer& recognizer() const { return recognizer_; }
  [[nodiscard]] std::size_t outbox_backlog() const;
  // Diagnostic summary of why collection has not completed (tests/benches).
  [[nodiscard]] std::string debug_collection_state() const;

 private:
  // Field-by-field snapshot serialization (src/serve/snapshot.cpp).
  friend struct serve::SnapshotAccess;

  struct StampedMessage {
    v2x::Message msg;
    util::SimTime since;
  };

  struct Aggregates {
    std::int64_t live_total = 0;
    std::size_t active = 0;
    std::size_t stable = 0;
    std::size_t markers_in_flight = 0;
    bool operator==(const Aggregates&) const = default;
  };

  [[nodiscard]] Aggregates scan_aggregates() const;
  // Snapshot restore: re-derive the aggregates from the restored state and
  // list every checkpoint as changed.
  void reset_aggregates();
  // Bookkeeping at the sites that change a checkpoint's published state.
  void mark_changed(const Checkpoint& cp);
  void add_to_total(const Checkpoint& cp, std::int64_t delta);
  void note_activated(const Checkpoint& cp);

  void consume_or_forward(v2x::Message msg, roadnet::NodeId here, util::SimTime now);
  void consume(Checkpoint& cp, const v2x::Message& msg, util::SimTime now);
  void send_message(roadnet::NodeId source, roadnet::NodeId dest, v2x::Payload payload,
                    util::SimTime now);
  void maybe_send_report(Checkpoint& cp, util::SimTime now);
  // Hop distance from every node to `dest` (memoized reverse BFS). A
  // departing vehicle is an eligible carrier for a message when its next
  // intersection is strictly closer to the destination — any shortest-ish
  // route works, which multiplies pickup opportunities over a single
  // next-hop edge.
  [[nodiscard]] const std::vector<std::uint16_t>& hops_to(roadnet::NodeId dest);
  [[nodiscard]] bool carries_toward(roadnet::NodeId from, roadnet::NodeId via,
                                    roadnet::NodeId dest);

  traffic::SimEngine& engine_;
  ProtocolConfig config_;
  surveillance::Recognizer recognizer_;
  v2x::Channel channel_;
  v2x::ObuRegistry obus_;
  util::Rng rng_;
  Oracle* oracle_ = nullptr;

  std::vector<Checkpoint> checkpoints_;           // by NodeId
  std::vector<std::deque<StampedMessage>> outbox_;  // by NodeId
  // The marker currently traveling each edge (invalid when none). At most
  // one marker exists per directed edge per counting round.
  std::vector<traffic::VehicleId> marker_on_edge_;
  std::vector<roadnet::NodeId> seeds_;
  bool started_ = false;

  std::unordered_map<std::uint32_t, std::vector<std::uint16_t>> next_hop_cache_;
  ProtocolStats stats_;

  Aggregates aggregates_;
  std::vector<roadnet::NodeId> changed_;
  std::vector<std::uint8_t> changed_flag_;  // by NodeId: listed in changed_
};

}  // namespace ivc::counting

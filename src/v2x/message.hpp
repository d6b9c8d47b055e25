// Message types exchanged between checkpoints and vehicles.
//
// The paper's protocol moves three kinds of information on top of traffic:
//  * the one-bit counting label (snapshot marker) — Alg. 1 phase 2;
//  * spanning-tree feedback ("you are / are not my predecessor") — needed to
//    concretize Alg. 2's successor set. A checkpoint sends markers on every
//    outbound direction but cannot see which neighbours they activated, so
//    it waits on each direction for either a "not a child" ack or the
//    child's report, which doubles as its ack
//    (Checkpoint.ReportGatingFullLifecycle;
//    ClosedCounting.SpanningForestHasOneTreePerSeed checks the forest);
//  * counter reports accumulated up the tree — Alg. 2 / Alg. 4.
// Reports and acks are routed checkpoint-to-checkpoint by store-carry-forward:
// a checkpoint hands the message to a vehicle departing toward the next hop,
// and the message is deposited at every intermediate checkpoint (the paper's
// "circuitous route"; patrol cars provide the fallback transport).
#pragma once

#include <cstdint>
#include <variant>

#include "roadnet/types.hpp"
#include "util/sim_time.hpp"

namespace ivc::v2x {

// The snapshot marker. Semantically one bit; issuer/edge/time are carried
// for diagnostics and the oracle only.
struct Label {
  roadnet::NodeId issuer;
  roadnet::EdgeId edge;  // the outbound direction it marks
  util::SimTime issued_at;
};

// v -> u = p(v): "your label activated me" (child) or "I was already
// active" (not a child). Resolves u's successor set.
struct TreeAck {
  roadnet::NodeId from;
  bool is_child = false;
};

// Subtree counter report, child -> parent (Alg. 2 phase 2 / Alg. 4).
struct CountReport {
  roadnet::NodeId from;
  std::int64_t subtree_total = 0;
};

using Payload = std::variant<TreeAck, CountReport>;

// A routed message: store-carry-forward toward `destination`.
struct Message {
  roadnet::NodeId source;
  roadnet::NodeId destination;
  Payload payload;
  util::SimTime created_at;
  int hops = 0;
};

}  // namespace ivc::v2x

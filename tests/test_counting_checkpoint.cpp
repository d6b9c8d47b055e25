// Checkpoint state machine unit tests (no simulator): activation,
// direction lifecycle, ledger arithmetic, report gating.
#include <gtest/gtest.h>

#include "counting/checkpoint.hpp"

#include "roadnet/builder.hpp"
#include "roadnet/manhattan.hpp"

namespace ivc::counting {
namespace {

using roadnet::EdgeId;
using roadnet::NodeId;
using roadnet::NetworkBuilder;
using roadnet::RoadSpec;
using util::SimTime;

struct Fixture {
  roadnet::RoadNetwork net = roadnet::make_triangle();
  // Node 0 ("1" in Fig. 1) with neighbors 1 and 2.
  [[nodiscard]] EdgeId in_from(NodeId u, NodeId v) const {
    return *net.edge_between(v, u);  // inbound u <- v
  }
  [[nodiscard]] EdgeId out_to(NodeId u, NodeId v) const { return *net.edge_between(u, v); }
};

TEST(Checkpoint, SeedActivationStartsAllDirections) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  EXPECT_FALSE(cp.is_active());
  cp.activate_as_seed(SimTime::from_seconds(1));
  EXPECT_TRUE(cp.is_active());
  EXPECT_TRUE(cp.is_seed());
  EXPECT_FALSE(cp.parent().valid());
  for (const auto& dir : cp.inbound()) {
    EXPECT_EQ(dir.state, DirectionState::Counting);
  }
  for (const auto& out : cp.outbound()) {
    EXPECT_TRUE(out.needs_label);
    EXPECT_EQ(out.outcome, LabelOutcome::NotIssued);
  }
  EXPECT_FALSE(cp.is_stable());
}

TEST(Checkpoint, LabelActivationExcludesPredecessor) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{1}, false);
  const EdgeId pred = f.in_from(NodeId{1}, NodeId{0});
  cp.activate_from_label(pred, SimTime::from_seconds(2));
  EXPECT_TRUE(cp.is_active());
  EXPECT_FALSE(cp.is_seed());
  EXPECT_EQ(cp.parent(), NodeId{0});
  EXPECT_EQ(cp.predecessor_edge(), pred);
  EXPECT_EQ(cp.find_inbound(pred)->state, DirectionState::Excluded);
  EXPECT_EQ(cp.find_inbound(f.in_from(NodeId{1}, NodeId{2}))->state,
            DirectionState::Counting);
  // Markers go out on every outbound direction, including back to the
  // predecessor: only this checkpoint can stop the predecessor's inbound
  // direction from here.
  for (const auto& out : cp.outbound()) EXPECT_TRUE(out.needs_label);
}

TEST(CheckpointDeath, DoubleActivationIsABug) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  EXPECT_DEATH(cp.activate_as_seed(SimTime::from_seconds(1)), "activated twice");
}

TEST(Checkpoint, MarkerStopsCountingAndStabilizes) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  const EdgeId from1 = f.in_from(NodeId{0}, NodeId{1});
  const EdgeId from2 = f.in_from(NodeId{0}, NodeId{2});
  cp.count_vehicle(from1);
  cp.count_vehicle(from1);
  cp.count_vehicle(from2);
  cp.marker_arrived(from1, SimTime::from_seconds(10));
  EXPECT_EQ(cp.find_inbound(from1)->state, DirectionState::Stopped);
  EXPECT_FALSE(cp.is_stable());
  cp.marker_arrived(from2, SimTime::from_seconds(14));
  EXPECT_TRUE(cp.is_stable());
  EXPECT_DOUBLE_EQ(cp.stable_time().seconds(), 14.0);
  EXPECT_EQ(cp.local_total(), 3);
}

TEST(Checkpoint, RedundantMarkerIsHarmless) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{1}, false);
  const EdgeId pred = f.in_from(NodeId{1}, NodeId{0});
  cp.activate_from_label(pred, SimTime::from_seconds(0));
  // Marker on the excluded predecessor direction (multi-seed wave meeting).
  cp.marker_arrived(pred, SimTime::from_seconds(5));
  EXPECT_EQ(cp.find_inbound(pred)->state, DirectionState::Excluded);
  // Second marker on a stopped direction.
  const EdgeId other = f.in_from(NodeId{1}, NodeId{2});
  cp.marker_arrived(other, SimTime::from_seconds(6));
  cp.marker_arrived(other, SimTime::from_seconds(7));
  EXPECT_DOUBLE_EQ(cp.find_inbound(other)->stop_time.seconds(), 6.0);
}

TEST(Checkpoint, AdjustmentLedgers) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  cp.apply_adjustment(-1, AdjustReason::LossCompensation);
  cp.apply_adjustment(-1, AdjustReason::LossCompensation);
  cp.apply_adjustment(+3, AdjustReason::OvertakeByMarker);
  cp.apply_adjustment(-1, AdjustReason::MarkerOvertaken);
  EXPECT_EQ(cp.loss_adjust(), -2);
  EXPECT_EQ(cp.overtake_adjust(), 2);
  EXPECT_EQ(cp.local_total(), 0);
  cp.count_vehicle(f.in_from(NodeId{0}, NodeId{1}));
  EXPECT_EQ(cp.local_total(), 1);
}

TEST(Checkpoint, InteractionCountersRequireBorder) {
  NetworkBuilder b;
  RoadSpec rs;
  rs.speed_limit = 10.0;
  const NodeId u = b.add_intersection({0, 0});
  const NodeId v = b.add_intersection({100, 0});
  b.add_two_way(u, v, rs);
  b.add_inbound_gateway(u, rs);
  b.add_outbound_gateway(u, rs);
  const auto net = b.build();

  Checkpoint border(net, u, /*open_system=*/true);
  EXPECT_TRUE(border.is_border());
  border.activate_as_seed(SimTime::from_seconds(0));
  border.interaction_entered();
  border.interaction_entered();
  border.interaction_exited();
  EXPECT_EQ(border.interaction_in(), 2);
  EXPECT_EQ(border.interaction_out(), 1);
  EXPECT_EQ(border.local_total(), 1);

  Checkpoint interior(net, v, /*open_system=*/true);
  EXPECT_FALSE(interior.is_border());
  // Closed-mode construction of the same border node is not a border either.
  Checkpoint closed(net, u, /*open_system=*/false);
  EXPECT_FALSE(closed.is_border());
}

TEST(Checkpoint, LabelIssueAndFailureBookkeeping) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  const EdgeId out = f.out_to(NodeId{0}, NodeId{1});
  cp.record_label_failure(out);
  cp.record_label_failure(out);
  EXPECT_EQ(cp.total_label_failures(), 2);
  cp.record_label_issued(out, SimTime::from_seconds(3));
  EXPECT_FALSE(cp.find_outbound(out)->needs_label);
  EXPECT_EQ(cp.find_outbound(out)->outcome, LabelOutcome::Pending);
}

TEST(Checkpoint, ReportGatingFullLifecycle) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  const EdgeId in1 = f.in_from(NodeId{0}, NodeId{1});
  const EdgeId in2 = f.in_from(NodeId{0}, NodeId{2});
  const EdgeId out1 = f.out_to(NodeId{0}, NodeId{1});
  const EdgeId out2 = f.out_to(NodeId{0}, NodeId{2});

  EXPECT_FALSE(cp.ready_to_report());  // still counting
  cp.count_vehicle(in1);
  cp.marker_arrived(in1, SimTime::from_seconds(5));
  cp.marker_arrived(in2, SimTime::from_seconds(6));
  EXPECT_TRUE(cp.is_stable());
  EXPECT_FALSE(cp.ready_to_report());  // outbound labels unresolved

  cp.record_label_issued(out1, SimTime::from_seconds(1));
  cp.record_label_issued(out2, SimTime::from_seconds(2));
  EXPECT_FALSE(cp.ready_to_report());  // acks outstanding

  cp.resolve_label(NodeId{1}, /*is_child=*/true);  // child: report pending
  cp.resolve_label(NodeId{2}, /*is_child=*/false);
  EXPECT_FALSE(cp.ready_to_report());  // child report missing

  cp.record_child_report(NodeId{1}, 41);
  EXPECT_TRUE(cp.ready_to_report());
  EXPECT_EQ(cp.children().size(), 1u);

  cp.mark_report_sent(42, SimTime::from_seconds(9));
  EXPECT_TRUE(cp.report_sent());
  EXPECT_EQ(cp.subtree_total(), 42);
  EXPECT_FALSE(cp.ready_to_report());  // only once
}

TEST(CheckpointDeath, DuplicateChildReportIsABug) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{0}, false);
  cp.activate_as_seed(SimTime::from_seconds(0));
  cp.record_child_report(NodeId{1}, 10);
  EXPECT_DEATH(cp.record_child_report(NodeId{1}, 10), "duplicate");
}

TEST(Checkpoint, StableTimeNeverBeforeActivation) {
  Fixture f;
  Checkpoint cp(f.net, NodeId{2}, false);
  const EdgeId pred = f.in_from(NodeId{2}, NodeId{0});
  cp.activate_from_label(pred, SimTime::from_seconds(30));
  EXPECT_TRUE(cp.stable_time().is_never());
  cp.marker_arrived(f.in_from(NodeId{2}, NodeId{1}), SimTime::from_seconds(45));
  ASSERT_TRUE(cp.is_stable());
  EXPECT_DOUBLE_EQ(cp.stable_time().seconds(), 45.0);
}

}  // namespace
}  // namespace ivc::counting

// Vehicle-side protocol behaviour at the FSM level: plan adoption, block
// verification outcomes, the neighbourhood watch, timeouts, dismissals,
// global-report handling, and attacker behaviours.
#include "nwade/vehicle_node.h"

#include <gtest/gtest.h>

#include "protocol_harness.h"

namespace nwade::protocol {
namespace {

using testing::Harness;

TEST(VehicleFsm, PreparationToTravelingOnPlan) {
  Harness h;
  auto& v = h.spawn(1, 0);
  EXPECT_EQ(v.state(), VehicleState::kPreparation);
  EXPECT_FALSE(v.has_plan());
  h.run_until(1500);  // one processing window + latency
  EXPECT_EQ(v.state(), VehicleState::kTraveling);
  ASSERT_TRUE(v.has_plan());
  EXPECT_EQ(v.plan()->vehicle, VehicleId{1});
  EXPECT_EQ(v.plan()->route_id, 0);
}

TEST(VehicleFsm, FollowsPlanExactly) {
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(20'000);
  ASSERT_TRUE(v.has_plan());
  EXPECT_NEAR(v.progress_s(), v.plan()->s_at(h.now()), 1e-6);
  EXPECT_GT(v.progress_s(), 0);
}

TEST(VehicleFsm, ExitsAtPathEnd) {
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(60'000);
  EXPECT_TRUE(v.exited());
}

TEST(VehicleFsm, ChainAccumulatesBlocks) {
  Harness h;
  h.spawn(1, 0);
  h.run_until(1500);
  h.spawn(2, 3);
  h.run_until(3500);
  // Vehicle 1 saw both its own block and vehicle 2's block.
  EXPECT_GE(h.vehicle(1).store().size(), 2u);
  // Vehicle 2 joined later: it has only the later block(s).
  EXPECT_GE(h.vehicle(2).store().size(), 1u);
  EXPECT_LT(h.vehicle(2).store().size(), h.vehicle(1).store().size() + 1);
}

TEST(Watch, BenignNeighboursNotReported) {
  Harness h;
  for (std::uint64_t i = 1; i <= 6; ++i) h.spawn(i, static_cast<int>(i - 1) % 12);
  h.run_until(30'000);
  EXPECT_EQ(h.metrics().incident_reports, 0);
  EXPECT_EQ(h.metrics().alarm_dismissals, 0);
}

TEST(Watch, DeviatorReportedAndConfirmed) {
  Harness h;
  h.spawn(1, 0, {VehicleRole::kDeviator, 8'000, DeviationMode::kAccelerate, {}});
  h.spawn(2, 0);  // same-route witness behind the deviator
  h.spawn(3, 1);
  h.run_until(20'000);
  ASSERT_TRUE(h.metrics().violation_start.has_value());
  EXPECT_TRUE(h.metrics().first_true_incident.has_value());
  EXPECT_TRUE(h.metrics().deviation_confirmed.has_value());
  EXPECT_GE(h.metrics().evacuation_alerts, 1);
}

TEST(Watch, BrakingDeviatorAlsoCaught) {
  Harness h;
  h.spawn(1, 0, {VehicleRole::kDeviator, 8'000, DeviationMode::kBrake, {}});
  h.spawn(2, 0);
  h.spawn(3, 1);
  h.run_until(25'000);
  EXPECT_TRUE(h.metrics().deviation_confirmed.has_value())
      << "an in-lane full stop violates the plan and must be detected";
}

TEST(Watch, ReportTimeoutTriggersSelfEvacuation) {
  // Silent IM: the reporting vehicle must give up and self-evacuate.
  Harness h(traffic::IntersectionKind::kCross4, ImAttackMode::kSilence, 0);
  h.spawn(1, 0, {VehicleRole::kDeviator, 8'000, DeviationMode::kAccelerate, {}});
  auto& witness = h.spawn(2, 0);
  h.run_until(9'000);
  h.run_until(16'000);
  EXPECT_TRUE(witness.self_evacuating() || witness.exited())
      << "state: " << vehicle_state_name(witness.state());
  EXPECT_GT(h.metrics().global_reports, 0);
}

TEST(Watch, DismissalStandsDownTheReporter) {
  Harness h;
  // Vehicle 2 reports vehicle 1 wrongly? Hard to fabricate via sensing; use
  // the false-reporter role to exercise the dismissal round trip instead.
  h.spawn(1, 0);
  h.spawn(2, 1, {VehicleRole::kFalseReporter, 6'000, {}, FalseReportKind::kIncident});
  h.spawn(3, 2);
  h.run_until(12'000);
  ASSERT_TRUE(h.metrics().false_incident_injected.has_value());
  EXPECT_TRUE(h.metrics().false_incident_dismissed.has_value());
  EXPECT_EQ(h.metrics().evacuation_alerts, 0);
  EXPECT_EQ(h.metrics().false_alarm_evacuations, 0);
}

TEST(BlockVerification, TamperedBroadcastTriggersSelfEvacuation) {
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(2'000);
  ASSERT_TRUE(v.has_plan());
  // Forge a block with a bad signature and hand-deliver it.
  chain::BlockFields forged;
  forged.seq = 99;
  forged.timestamp = h.now();
  forged.signature = Bytes{1, 2, 3};
  auto msg = std::make_shared<BlockBroadcast>();
  msg->block = std::make_shared<const chain::Block>(std::move(forged));
  net::Envelope env{kImNodeId, v.node_id(), true, h.now(), msg};
  v.on_message(env);
  EXPECT_TRUE(v.self_evacuating());
  EXPECT_GT(h.metrics().block_verification_failures, 0);
}

TEST(BlockVerification, DuplicateBroadcastIsHarmless) {
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(2'000);
  const std::size_t size_before = v.store().size();
  ASSERT_GT(size_before, 0u);
  // Re-deliver the latest block (a rebroadcast).
  auto msg = std::make_shared<BlockBroadcast>();
  msg->block = v.store().blocks().back();
  net::Envelope env{kImNodeId, v.node_id(), true, h.now(), msg};
  v.on_message(env);
  EXPECT_FALSE(v.self_evacuating());
  EXPECT_EQ(v.store().size(), size_before);
}

TEST(BlockVerification, RevokedListAdoptedFromChain) {
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(2'000);
  // Build a legitimate next block carrying a revocation.
  const chain::Block* latest = v.store().latest();
  ASSERT_NE(latest, nullptr);
  auto msg = std::make_shared<BlockBroadcast>();
  msg->block = chain::Block::package(latest->seq + 1, latest->hash(), h.now(), {},
                                     h.signer(), {VehicleId{77}});
  v.on_message(net::Envelope{kImNodeId, v.node_id(), true, h.now(), msg});
  EXPECT_FALSE(v.self_evacuating());
  // The revocation is visible indirectly: watch will never report 77, and
  // more importantly verification accepted the signed revocation block.
  EXPECT_EQ(v.store().latest()->revoked.size(), 1u);
}

TEST(BlockVerification, EquivocatingBlockUnderCachedSeqIsRejected) {
  // The IM signs a second, different block under the seq vehicle 1 caches,
  // and sends it as a broadcast or as an unrequested block response.
  for (const bool as_response : {false, true}) {
    SCOPED_TRACE(as_response ? "BlockResponse" : "BlockBroadcast");
    Harness h;
    auto& v = h.spawn(1, 0);
    h.spawn(2, 0);
    h.run_until(3'000);
    const chain::Block* cached = v.store().latest();
    ASSERT_NE(cached, nullptr);
    ASSERT_EQ(cached->seq, 0u);
    const Tick issued = v.plan()->issued_at;
    // A plan for vehicle 1 on vehicle 2's timing: the two would collide.
    aim::TravelPlan stolen = *h.vehicle(2).plan();
    stolen.vehicle = VehicleId{1};
    stolen.issued_at = h.now();
    ASSERT_EQ(aim::find_plan_conflicts(h.intersection(), {&stolen, h.vehicle(2).plan()},
                                       kPlanCheckMarginMs)
                  .size(),
              1u);
    const chain::BlockPtr twin = chain::Block::package(
        cached->seq, cached->prev_hash, h.now(), {stolen}, h.signer());
    net::MessagePtr msg;
    if (as_response) {
      auto resp = std::make_shared<BlockResponse>();
      resp->plan_of = VehicleId{1};
      resp->block = twin;
      msg = resp;
    } else {
      auto bb = std::make_shared<BlockBroadcast>();
      bb->block = twin;
      msg = bb;
    }
    v.on_message(net::Envelope{kImNodeId, v.node_id(), true, h.now(), msg});
    EXPECT_TRUE(v.self_evacuating());
    EXPECT_GT(h.metrics().block_verification_failures, 0);
    ASSERT_TRUE(v.has_plan());
    EXPECT_EQ(v.plan()->issued_at, issued);  // the stolen plan is not adopted
    EXPECT_EQ(v.store().latest()->seq, 0u);
  }
}

TEST(BlockVerification, UnsignedBlockResponseUnderCachedSeqIsIgnored) {
  // Peers answer block requests too, so a response under a cached seq that
  // the IM did not sign proves nothing about the IM: it is dropped.
  Harness h;
  auto& v = h.spawn(1, 0);
  h.run_until(3'000);
  ASSERT_FALSE(v.store().empty());
  ASSERT_TRUE(v.has_plan());
  const chain::BlockPtr cached = v.store().blocks().back();
  const Tick issued = v.plan()->issued_at;
  chain::BlockFields forged = cached->fields();
  forged.timestamp += 1;  // no longer matches the signature
  auto resp = std::make_shared<BlockResponse>();
  resp->plan_of = VehicleId{1};
  resp->block = std::make_shared<const chain::Block>(std::move(forged));
  v.on_message(net::Envelope{vehicle_node(VehicleId{2}), v.node_id(), true, h.now(), resp});
  EXPECT_FALSE(v.self_evacuating());
  EXPECT_EQ(h.metrics().block_verification_failures, 0);
  EXPECT_EQ(v.plan()->issued_at, issued);
}

TEST(GlobalReports, FalseConflictClaimRefuted) {
  Harness h;
  auto& v1 = h.spawn(1, 0);
  h.spawn(2, 3);
  h.run_until(3'000);
  ASSERT_GT(v1.store().size(), 0u);
  // Deliver a lying global report that block 0 contains conflicts.
  auto gr = std::make_shared<GlobalReport>();
  gr->reporter = VehicleId{2};
  gr->reason = GlobalReason::kConflictingPlans;
  gr->block_seq = v1.store().latest()->seq;
  v1.on_message(net::Envelope{vehicle_node(VehicleId{2}), v1.node_id(), true,
                              h.now(), gr});
  // v1 verified that block itself: it must NOT self-evacuate, and it files a
  // misbehaviour report against the liar.
  EXPECT_FALSE(v1.self_evacuating());
  h.run_until(4'000);
  EXPECT_GE(h.metrics().incident_reports, 1);
}

TEST(GlobalReports, ThresholdCountTriggersCautionaryEvacuation) {
  Harness h;
  h.config().global_report_threshold = 3;
  auto& v1 = h.spawn(1, 0);
  h.run_until(2'000);
  // Three distinct (fabricated) reporters claim an abnormal vehicle far away.
  for (std::uint64_t reporter = 50; reporter < 53; ++reporter) {
    auto gr = std::make_shared<GlobalReport>();
    gr->reporter = VehicleId{reporter};
    gr->reason = GlobalReason::kAbnormalVehicle;
    gr->suspect = VehicleId{99};  // unobservable -> "far away" branch
    v1.on_message(net::Envelope{vehicle_node(VehicleId{reporter}), v1.node_id(),
                                true, h.now(), gr});
  }
  EXPECT_TRUE(v1.self_evacuating())
      << "threshold reached with an unobservable suspect and no dismissal";
}

TEST(GlobalReports, BelowThresholdDoesNothing) {
  Harness h;
  h.config().global_report_threshold = 3;
  auto& v1 = h.spawn(1, 0);
  h.run_until(2'000);
  for (std::uint64_t reporter = 50; reporter < 52; ++reporter) {  // only 2
    auto gr = std::make_shared<GlobalReport>();
    gr->reporter = VehicleId{reporter};
    gr->reason = GlobalReason::kAbnormalVehicle;
    gr->suspect = VehicleId{99};
    v1.on_message(net::Envelope{vehicle_node(VehicleId{reporter}), v1.node_id(),
                                true, h.now(), gr});
  }
  EXPECT_FALSE(v1.self_evacuating());
}

TEST(GlobalReports, DuplicateReportersCountOnce) {
  Harness h;
  h.config().global_report_threshold = 3;
  auto& v1 = h.spawn(1, 0);
  h.run_until(2'000);
  // The same reporter spams five times: still one distinct voice.
  for (int i = 0; i < 5; ++i) {
    auto gr = std::make_shared<GlobalReport>();
    gr->reporter = VehicleId{50};
    gr->reason = GlobalReason::kAbnormalVehicle;
    gr->suspect = VehicleId{99};
    v1.on_message(net::Envelope{vehicle_node(VehicleId{50}), v1.node_id(), true,
                                h.now(), gr});
  }
  EXPECT_FALSE(v1.self_evacuating());
}

TEST(SelfEvacuation, PullsOverBeforeCore) {
  Harness h(traffic::IntersectionKind::kCross4, ImAttackMode::kSilence, 0);
  h.spawn(1, 0, {VehicleRole::kDeviator, 6'000, DeviationMode::kAccelerate, {}});
  auto& witness = h.spawn(2, 0);
  h.run_until(20'000);
  if (witness.self_evacuating()) {
    const auto& route = h.intersection().route(witness.route_id());
    if (witness.progress_s() < route.core_begin - 5.0) {
      // Pre-core self-evacuation comes to a stop on the shoulder.
      h.run_until(40'000);
      EXPECT_LT(witness.speed_mps(), 0.6);
    }
  }
}

TEST(Attack, DeviatorPhysicallyLeavesPlan) {
  Harness h;
  auto& d = h.spawn(1, 0, {VehicleRole::kDeviator, 5'000,
                           DeviationMode::kAccelerate, {}});
  h.run_until(4'900);
  ASSERT_TRUE(d.has_plan());
  h.run_until(12'000);
  const double expected = d.plan()->s_at(h.now());
  EXPECT_GT(d.progress_s(), expected + 5.0)
      << "accelerating deviator must run ahead of its plan";
}

TEST(Attack, FalseReporterTargetsNonColluders) {
  Harness h;
  h.spawn(1, 0);  // the only candidate target
  h.spawn(2, 1, {VehicleRole::kFalseReporter, 4'000, {}, FalseReportKind::kIncident});
  h.run_until(10'000);
  ASSERT_TRUE(h.metrics().false_incident_injected.has_value());
}

TEST(Attack, TypeBLiarBroadcastsWrongPlanClaim) {
  Harness h;
  h.spawn(1, 0);
  h.spawn(2, 1, {VehicleRole::kFalseReporter, 4'000, {}, FalseReportKind::kWrongPlans});
  h.spawn(3, 2);
  h.run_until(12'000);
  ASSERT_TRUE(h.metrics().false_global_injected.has_value());
  EXPECT_TRUE(h.metrics().false_global_detected.has_value());
  EXPECT_EQ(h.metrics().false_alarm_evacuations, 0);
}

TEST(Lifecycle, SecurityDisabledSkipsEverything) {
  Harness h;
  h.config().security_enabled = false;
  auto& v = h.spawn(1, 0);
  h.spawn(2, 0, {VehicleRole::kDeviator, 5'000, DeviationMode::kAccelerate, {}});
  h.run_until(20'000);
  EXPECT_TRUE(v.has_plan());           // plans still flow
  EXPECT_EQ(h.metrics().incident_reports, 0);  // but nobody watches
  EXPECT_EQ(h.metrics().vehicle_verify_us.size(), 0u);
}

}  // namespace
}  // namespace nwade::protocol

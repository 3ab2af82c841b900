// Protocol message metadata, state names, and configuration invariants.
#include "nwade/messages.h"

#include <gtest/gtest.h>

#include "nwade/im_node.h"
#include "nwade/message_codec.h"
#include "nwade/vehicle_node.h"

namespace nwade::protocol {
namespace {

TEST(Messages, KindsAreUniqueAndStable) {
  PlanRequest pr;
  BlockBroadcast bb;
  BlockRequest brq;
  BlockResponse brs;
  IncidentReport ir;
  VerifyRequest vq;
  VerifyResponse vr;
  AlarmDismiss ad;
  EvacuationAlert ea;
  GlobalReport gr;
  const std::vector<const net::Message*> all = {&pr, &bb, &brq, &brs, &ir,
                                                &vq, &vr,  &ad,  &ea,  &gr};
  std::set<std::string> kinds;
  for (const auto* m : all) kinds.insert(m->kind());
  EXPECT_EQ(kinds.size(), all.size());
  EXPECT_EQ(pr.kind(), "plan_request");
  EXPECT_EQ(gr.kind(), "global_report");
}

TEST(Messages, WireSizesArePlausible) {
  // Every control message is small; blocks dominate.
  EXPECT_LT(PlanRequest{}.wire_size(), 256u);
  EXPECT_LT(IncidentReport{}.wire_size(), 256u);
  EXPECT_LT(GlobalReport{}.wire_size(), 256u);
  BlockBroadcast empty;
  EXPECT_EQ(empty.wire_size(), 0u);  // no block attached
}

TEST(Messages, BlockBroadcastSizeTracksBlock) {
  crypto::HmacSigner signer(Bytes{'k'});
  aim::TravelPlan p;
  p.vehicle = VehicleId{1};
  p.segments = {aim::PlanSegment{0, 0, 10}};
  BlockBroadcast small, large;
  small.block = chain::Block::package(0, {}, 0, {p}, signer);
  std::vector<aim::TravelPlan> many(20, p);
  large.block = chain::Block::package(0, {}, 0, many, signer);
  EXPECT_GT(large.wire_size(), small.wire_size());
  EXPECT_EQ(large.wire_size(), large.block->serialize().size());
}

TEST(Messages, CodecRejectsTagsPastTheLastKind) {
  // A message's tag is its kind's index; GlobalReport is the last kind.
  GlobalReport report;
  report.reporter = VehicleId{7};
  ByteWriter w;
  WriteArchive out(w);
  encode_message(out, report);
  ASSERT_EQ(w.data().at(0), 9);
  {
    ByteReader r(w.data());
    ReadArchive in(r);
    EXPECT_NE(decode_message(in), nullptr);
    EXPECT_TRUE(in.ok() && r.at_end());
  }
  Bytes unknown = w.data();
  unknown[0] = 10;
  ByteReader r(unknown);
  ReadArchive in(r);
  EXPECT_EQ(decode_message(in), nullptr);
  EXPECT_FALSE(in.ok());
}

TEST(Names, GlobalReasons) {
  EXPECT_STREQ(global_reason_name(GlobalReason::kConflictingPlans),
               "conflicting_plans");
  EXPECT_STREQ(global_reason_name(GlobalReason::kAbnormalVehicle),
               "abnormal_vehicle");
  EXPECT_STREQ(global_reason_name(GlobalReason::kImUnresponsive),
               "im_unresponsive");
  EXPECT_STREQ(global_reason_name(GlobalReason::kShamAlert), "sham_alert");
}

TEST(Names, VehicleStatesCoverFig2) {
  // The paper's Fig. 2 gives vehicles 8 states; the fault-tolerance layer
  // adds a 9th (degraded). Every one has a distinct name.
  const VehicleState states[] = {
      VehicleState::kPreparation,       VehicleState::kBlockVerification,
      VehicleState::kTraveling,         VehicleState::kLocalVerification,
      VehicleState::kAwaitingResponse,  VehicleState::kGlobalVerification,
      VehicleState::kSelfEvacuation,    VehicleState::kDegraded,
      VehicleState::kExited};
  std::set<std::string> names;
  for (VehicleState s : states) names.insert(vehicle_state_name(s));
  EXPECT_EQ(names.size(), 9u);
}

TEST(Names, ImStatesCoverFig2) {
  // The IM has 7 states.
  const ImState states[] = {ImState::kStandby,   ImState::kScheduling,
                            ImState::kBlockPackaging, ImState::kDissemination,
                            ImState::kReportVerification, ImState::kEvacuation,
                            ImState::kRecovery};
  std::set<std::string> names;
  for (ImState s : states) names.insert(im_state_name(s));
  EXPECT_EQ(names.size(), 7u);
}

TEST(Config, PaperDefaults) {
  const NwadeConfig cfg;
  EXPECT_EQ(kProcessingWindowMs, 1000);                 // delta
  EXPECT_NEAR(kSensingRadiusM, 304.8, 0.1);             // 1000 ft
  EXPECT_NEAR(cfg.im_perception_radius_m, 304.8, 0.1);  // 1000 ft
  EXPECT_TRUE(cfg.double_check_verification);
  EXPECT_TRUE(cfg.security_enabled);
}

TEST(Config, NetworkPaperDefaults) {
  const net::NetworkConfig cfg;
  EXPECT_EQ(cfg.latency_ms, 30);                 // 30 ms
  EXPECT_NEAR(cfg.comm_radius_m, 457.2, 0.1);    // 1500 ft
  EXPECT_EQ(cfg.loss_probability, 0.0);
}

TEST(Config, KinematicPaperDefaults) {
  const traffic::KinematicLimits limits;
  EXPECT_NEAR(limits.speed_limit_mps, 22.35, 0.01);  // 50 mph
  EXPECT_DOUBLE_EQ(limits.max_accel_mps2, 2.0);
  EXPECT_DOUBLE_EQ(limits.max_decel_mps2, 3.0);
}

}  // namespace
}  // namespace nwade::protocol

// Idempotent message handling under duplication and replay: the fault layer
// can deliver any packet twice and blocks out of order; protocol state must
// converge to the same place regardless.
#include <gtest/gtest.h>

#include "nwade/messages.h"
#include "protocol_harness.h"

namespace nwade::protocol {
namespace {

using testing::Harness;

net::Envelope envelope(NodeId from, NodeId to, net::MessagePtr msg, Tick now) {
  return net::Envelope{from, to, /*broadcast=*/false, now, std::move(msg)};
}

TEST(Idempotency, DuplicatePlanRequestIsNotDoubleScheduled) {
  Harness h;
  h.spawn(1, 0);
  h.run_until(2'000);
  ASSERT_TRUE(h.vehicle(1).has_plan());
  const Tick issued = h.vehicle(1).plan()->issued_at;
  ASSERT_EQ(h.im().active_plan_count(), 1u);
  const chain::BlockSeq seq_before = h.im().next_seq();

  // Replay the plan request straight into the IM (as a duplicated packet
  // would arrive). The IM must re-send the existing block, not re-schedule.
  auto req = std::make_shared<PlanRequest>();
  req->vehicle = VehicleId{1};
  req->route_id = 0;
  req->status = h.vehicle(1).ground_truth();
  h.im().on_message(envelope(vehicle_node(VehicleId{1}), kImNodeId,
                             std::move(req), h.now()));
  h.run_until(4'000);

  EXPECT_EQ(h.im().active_plan_count(), 1u);
  ASSERT_TRUE(h.vehicle(1).has_plan());
  EXPECT_EQ(h.vehicle(1).plan()->issued_at, issued);  // same plan, not redone
  // No new scheduling block was packaged for the duplicate (windows with no
  // pending work publish nothing).
  EXPECT_EQ(h.im().next_seq(), seq_before);
}

TEST(Idempotency, ReplayedBlockBroadcastDoesNotRollPlanBack) {
  Harness h;
  h.spawn(1, 0);
  h.run_until(2'000);
  ASSERT_TRUE(h.vehicle(1).has_plan());
  ASSERT_FALSE(h.vehicle(1).store().empty());
  const chain::BlockPtr replay = h.vehicle(1).store().blocks().back();

  // A later window issues more blocks (another vehicle joins).
  h.spawn(2, 1);
  h.run_until(4'000);
  ASSERT_TRUE(h.vehicle(2).has_plan());
  const std::size_t store_size = h.vehicle(1).store().size();
  ASSERT_GT(store_size, 1u);
  const Tick issued = h.vehicle(1).plan()->issued_at;

  // Replay the old block at vehicle 1 several times.
  for (int i = 0; i < 3; ++i) {
    auto msg = std::make_shared<BlockBroadcast>();
    msg->block = replay;
    h.vehicle(1).on_message(
        envelope(kImNodeId, vehicle_node(VehicleId{1}), std::move(msg), h.now()));
  }
  h.run_until(5'000);

  EXPECT_EQ(h.vehicle(1).store().size(), store_size);  // replay not appended
  ASSERT_TRUE(h.vehicle(1).has_plan());
  EXPECT_EQ(h.vehicle(1).plan()->issued_at, issued);  // plan not rolled back
  EXPECT_EQ(h.metrics().block_verification_failures, 0);
  EXPECT_FALSE(h.vehicle(1).self_evacuating());
}

TEST(Idempotency, BlockSeqGapTriggersBoundedRecoveryAndResync) {
  Harness h;
  h.spawn(1, 0);
  h.run_until(2'000);
  ASSERT_TRUE(h.vehicle(1).has_plan());
  const auto* latest = h.vehicle(1).store().latest();
  ASSERT_NE(latest, nullptr);
  // The resync below replaces the store's contents, so `latest` dangles once
  // the gap block is handled; keep only its sequence number.
  const chain::BlockSeq base_seq = latest->seq;
  const Tick issued = h.vehicle(1).plan()->issued_at;

  // A block three sequence numbers ahead arrives (the two between were lost
  // in a burst). The vehicle requests exactly the missing range, then
  // resyncs its cache from the new block.
  const chain::BlockPtr future = chain::Block::package(
      base_seq + 3, crypto::Digest{}, h.now(), {}, h.signer());
  auto msg = std::make_shared<BlockBroadcast>();
  msg->block = future;
  h.vehicle(1).on_message(
      envelope(kImNodeId, vehicle_node(VehicleId{1}), std::move(msg), h.now()));

  EXPECT_EQ(h.metrics().gap_block_requests, 2);  // seq+1 and seq+2, no more
  ASSERT_NE(h.vehicle(1).store().latest(), nullptr);
  EXPECT_EQ(h.vehicle(1).store().latest()->seq, base_seq + 3);
  EXPECT_EQ(h.vehicle(1).store().size(), 1u);  // resynced from the gap block
  ASSERT_TRUE(h.vehicle(1).has_plan());
  EXPECT_EQ(h.vehicle(1).plan()->issued_at, issued);  // own plan survives

  // The same gap block again: now a plain duplicate, no further requests.
  auto again = std::make_shared<BlockBroadcast>();
  again->block = future;
  h.vehicle(1).on_message(
      envelope(kImNodeId, vehicle_node(VehicleId{1}), std::move(again), h.now()));
  EXPECT_EQ(h.metrics().gap_block_requests, 2);
  EXPECT_EQ(h.vehicle(1).store().size(), 1u);
}

TEST(Idempotency, DuplicateVerifyRequestIsAnsweredOnce) {
  Harness h;
  h.spawn(1, 0);
  h.spawn(2, 0);
  h.run_until(2'000);
  ASSERT_TRUE(h.vehicle(1).has_plan());

  const auto responses_before =
      h.network().stats().packets_by_kind.count("verify_response")
          ? h.network().stats().packets_by_kind.at("verify_response")
          : 0u;
  for (int i = 0; i < 3; ++i) {
    auto req = std::make_shared<VerifyRequest>();
    req->request_id = 77;
    req->suspect = VehicleId{2};
    h.vehicle(1).on_message(
        envelope(kImNodeId, vehicle_node(VehicleId{1}), std::move(req), h.now()));
  }
  h.run_until(3'000);
  const auto responses_after =
      h.network().stats().packets_by_kind.at("verify_response");
  EXPECT_EQ(responses_after - responses_before, 1u);
}

TEST(Idempotency, DuplicateVerifyResponsesDoNotSkewTheVote) {
  Harness h;
  // Force the distributed verification path: the IM cannot perceive anyone.
  h.config().im_perception_radius_m = 1.0;
  for (std::uint64_t id = 1; id <= 4; ++id) h.spawn(id, 0);
  h.run_until(3'000);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(h.vehicle(id).has_plan());
  }

  // Vehicle 1 (falsely) reports vehicle 2. The IM asks the remaining
  // neighbours (3 and 4) to verify; both will truthfully answer "normal".
  auto report = std::make_shared<IncidentReport>();
  report->reporter = VehicleId{1};
  report->evidence.suspect = VehicleId{2};
  report->evidence.deviation_m = 50.0;
  report->evidence.observed_at = h.now();
  h.im().on_message(envelope(vehicle_node(VehicleId{1}), kImNodeId,
                             std::move(report), h.now()));

  // A duplicating channel replays two forged "abnormal" votes from phantom
  // responders, twice each. Keyed by responder, they must count once each:
  // the tally is 2 abnormal vs 2 normal — no majority, alarm dismissed. If
  // duplicates were double-counted (4 vs 2) the IM would evacuate.
  for (int copy = 0; copy < 2; ++copy) {
    for (std::uint64_t phantom : {50u, 51u}) {
      auto vote = std::make_shared<VerifyResponse>();
      vote->request_id = 1;  // first round id
      vote->responder = VehicleId{phantom};
      vote->suspect = VehicleId{2};
      vote->abnormal = true;
      h.im().on_message(envelope(vehicle_node(VehicleId{phantom}), kImNodeId,
                                 std::move(vote), h.now()));
    }
  }
  h.run_until(5'000);

  EXPECT_EQ(h.metrics().alarm_dismissals, 1);
  EXPECT_EQ(h.metrics().evacuation_alerts, 0);
  EXPECT_EQ(h.metrics().false_alarm_evacuations, 0);
}

}  // namespace
}  // namespace nwade::protocol

// End-to-end runs of the full stack: traffic + network + IM + vehicles +
// NWADE, under benign and attacked conditions.
#include "sim/world.h"

#include <gtest/gtest.h>

namespace nwade::sim {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 60;
  cfg.duration_ms = 90'000;
  cfg.seed = 12345;
  return cfg;
}

TEST(BenignRun, TrafficFlows) {
  World world(base_config());
  const RunSummary s = world.run();
  EXPECT_GT(s.metrics.vehicles_spawned, 50);
  EXPECT_GT(s.metrics.vehicles_exited, 20);
  EXPECT_GT(s.throughput_vpm, 10.0);
  EXPECT_GT(s.metrics.blocks_published, 30);
  // Nothing suspicious happened.
  EXPECT_EQ(s.metrics.incident_reports, 0);
  EXPECT_EQ(s.metrics.global_reports, 0);
  EXPECT_EQ(s.metrics.evacuation_alerts, 0);
  EXPECT_EQ(s.metrics.benign_self_evacuations, 0);
  EXPECT_EQ(s.metrics.block_verification_failures, 0);
}

TEST(BenignRun, DeterministicForSameSeed) {
  const RunSummary a = World(base_config()).run();
  const RunSummary b = World(base_config()).run();
  EXPECT_EQ(a.metrics.vehicles_exited, b.metrics.vehicles_exited);
  EXPECT_EQ(a.net_stats.packets_sent, b.net_stats.packets_sent);
  EXPECT_DOUBLE_EQ(a.mean_crossing_ms, b.mean_crossing_ms);
}

TEST(BenignRun, VehiclesHoldVerifiedChains) {
  ScenarioConfig cfg = base_config();
  cfg.duration_ms = 45'000;
  World world(cfg);
  world.run_until(cfg.duration_ms);
  int with_plans = 0;
  for (VehicleId id : world.vehicle_ids()) {
    const auto* v = world.vehicle(id);
    if (v->has_plan()) ++with_plans;
    EXPECT_NE(v->state(), protocol::VehicleState::kSelfEvacuation);
  }
  EXPECT_GT(with_plans, 10);
}

TEST(BenignRun, NoGroundTruthNearCollisions) {
  ScenarioConfig cfg = base_config();
  cfg.vehicles_per_minute = 100;
  const RunSummary s = World(cfg).run();
  EXPECT_EQ(s.min_ground_truth_gap_violations, 0)
      << "benign plan-following traffic must never come within 1.5 m";
}

TEST(V1Attack, DeviationDetectedAndConfirmed) {
  ScenarioConfig cfg = base_config();
  cfg.attack = protocol::attack_setting_by_name("V1");
  cfg.attack_time = 40'000;
  const RunSummary s = World(cfg).run();
  ASSERT_TRUE(s.metrics.violation_start.has_value());
  ASSERT_TRUE(s.metrics.first_true_incident.has_value())
      << "a benign watcher must report the deviator";
  ASSERT_TRUE(s.metrics.deviation_confirmed.has_value());
  EXPECT_GE(*s.metrics.first_true_incident, *s.metrics.violation_start);
  EXPECT_GE(*s.metrics.deviation_confirmed, *s.metrics.first_true_incident);
  EXPECT_GE(s.metrics.evacuation_alerts, 1);
  // Detection happens within seconds of the physical deviation.
  EXPECT_LT(*s.metrics.deviation_confirmed - *s.metrics.violation_start, 10'000);
}

TEST(V2Attack, FalseIncidentDismissed) {
  ScenarioConfig cfg = base_config();
  cfg.attack = protocol::attack_setting_by_name("V2");
  cfg.attack_time = 40'000;
  const RunSummary s = World(cfg).run();
  // The false report against a benign vehicle was sent and dismissed.
  ASSERT_TRUE(s.metrics.false_incident_injected.has_value());
  EXPECT_TRUE(s.metrics.false_incident_dismissed.has_value())
      << "benign IM must dismiss the fabricated report";
  EXPECT_EQ(s.metrics.false_alarm_evacuations, 0)
      << "a single false reporter must not trigger any evacuation";
  // The real deviation is still caught.
  EXPECT_TRUE(s.metrics.deviation_confirmed.has_value());
}

TEST(V2Attack, TypeBFalseGlobalRefuted) {
  ScenarioConfig cfg = base_config();
  cfg.attack = protocol::attack_setting_by_name("V2");
  cfg.false_report_kind = protocol::FalseReportKind::kWrongPlans;
  cfg.attack_time = 40'000;
  const RunSummary s = World(cfg).run();
  ASSERT_TRUE(s.metrics.false_global_injected.has_value());
  EXPECT_TRUE(s.metrics.false_global_detected.has_value())
      << "peers holding the clean block must refute the claim";
  // Nobody evacuated over the lie.
  EXPECT_EQ(s.metrics.false_alarm_evacuations, 0);
  ASSERT_TRUE(s.metrics.false_global_detection_time().has_value());
  EXPECT_LT(*s.metrics.false_global_detection_time(), 5'000);
}

TEST(ImAttack, ConflictingPlansCaughtByVehicles) {
  ScenarioConfig cfg = base_config();
  cfg.attack = protocol::attack_setting_by_name("IM");
  cfg.attack_time = 30'000;
  const RunSummary s = World(cfg).run();
  ASSERT_TRUE(s.metrics.im_conflict_injected.has_value())
      << "the malicious IM must find a pair to collide";
  ASSERT_TRUE(s.metrics.im_conflict_detected.has_value());
  EXPECT_GE(*s.metrics.im_conflict_detected, *s.metrics.im_conflict_injected);
  // Block verification catches it fast (one broadcast latency).
  EXPECT_LT(*s.metrics.im_conflict_detected - *s.metrics.im_conflict_injected, 2'000);
  EXPECT_GT(s.metrics.block_verification_failures, 0);
  EXPECT_GT(s.metrics.benign_self_evacuations, 0)
      << "vehicles that saw the bad block must self-evacuate";
  EXPECT_GT(s.metrics.global_reports, 0);
}

TEST(ImV1Attack, SilentImForcesSelfEvacuation) {
  ScenarioConfig cfg = base_config();
  cfg.attack = protocol::attack_setting_by_name("IM_V1");
  cfg.im_attack_mode = protocol::ImAttackMode::kSilence;  // pure stonewalling
  cfg.attack_time = 40'000;
  const RunSummary s = World(cfg).run();
  ASSERT_TRUE(s.metrics.violation_start.has_value());
  ASSERT_TRUE(s.metrics.first_true_incident.has_value());
  // The IM never answers: no dismissals, no alerts for the true report.
  EXPECT_EQ(s.metrics.evacuation_alerts, 0);
  // The reporter times out, self-evacuates, and the threat still counts as
  // recognized (confirmed via the global path).
  EXPECT_GT(s.metrics.benign_self_evacuations, 0);
  ASSERT_TRUE(s.metrics.deviation_confirmed.has_value());
}

TEST(NwadeDisabled, NoSecurityTrafficStillFlows) {
  ScenarioConfig cfg = base_config();
  cfg.nwade.security_enabled = false;
  const RunSummary s = World(cfg).run();
  EXPECT_GT(s.metrics.vehicles_exited, 20);
  EXPECT_EQ(s.metrics.incident_reports, 0);
  EXPECT_EQ(s.metrics.vehicle_verify_us.size(), 0u);
}

TEST(NwadeOverhead, ThroughputUnaffected) {
  // Fig. 8's claim: adding NWADE leaves throughput essentially unchanged.
  ScenarioConfig on = base_config();
  ScenarioConfig off = base_config();
  off.nwade.security_enabled = false;
  const RunSummary s_on = World(on).run();
  const RunSummary s_off = World(off).run();
  EXPECT_NEAR(s_on.throughput_vpm, s_off.throughput_vpm,
              0.05 * s_off.throughput_vpm + 1.0);
}

TEST(Sensors, WorldImplementsProvider) {
  ScenarioConfig cfg = base_config();
  World world(cfg);
  world.run_until(30'000);
  const auto ids = world.vehicle_ids();
  ASSERT_FALSE(ids.empty());
  // observe() sees active vehicles and returns consistent positions.
  int observed = 0;
  for (VehicleId id : ids) {
    const auto obs = world.observe(id);
    if (!obs) continue;
    ++observed;
    EXPECT_EQ(obs->id, id);
    const auto nearby = world.sense_around(obs->status.position, 50.0, id);
    for (const auto& n : nearby) {
      EXPECT_NE(n.id, id);
      EXPECT_LE(n.status.position.distance_to(obs->status.position), 50.0 + 1e-9);
    }
  }
  EXPECT_GT(observed, 0);
}

}  // namespace
}  // namespace nwade::sim

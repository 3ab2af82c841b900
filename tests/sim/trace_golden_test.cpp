// Golden-trace regression lock: a deterministic World run must produce a
// bit-for-bit identical trace across refactors. The digests below were
// recorded from the pre-optimization (linear-scan scheduler, uncached
// crypto) tree; the indexed reservation tables, block-level caches, and the
// worker pool must all reproduce them exactly. Wall-clock metrics
// (im_package_us / vehicle_verify_us) are excluded — everything else that a
// run observes is folded into one SHA-256.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "crypto/sha256.h"
#include "sim/world.h"
#include "util/bytes.h"

namespace nwade::sim {
namespace {

void fold_optional_tick(ByteWriter& w, const std::optional<Tick>& t) {
  w.u8(t.has_value() ? 1 : 0);
  w.i64(t.value_or(0));
}

void fold_kind_map(ByteWriter& w,
                   const std::unordered_map<std::string, std::uint64_t>& m) {
  std::map<std::string, std::uint64_t> sorted(m.begin(), m.end());
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [kind, count] : sorted) {
    w.str(kind);
    w.u64(count);
  }
}

/// Runs the scenario to the midpoint, snapshots every live vehicle's view of
/// the chain (per-block seq + Merkle root + exact plan bytes), finishes the
/// run, folds in the full summary, and returns the hex digest of it all.
std::string trace_digest(ScenarioConfig cfg) {
  World world(std::move(cfg));
  ByteWriter w;

  world.run_until(world.now() + 60'000);
  for (const VehicleId id : world.vehicle_ids()) {
    const protocol::VehicleNode* v =
        const_cast<World&>(world).vehicle(id);
    if (v == nullptr) continue;
    w.u64(id.value);
    const auto& store = v->store();
    w.u64(store.size());
    for (const auto& block : store.blocks()) {
      w.u64(block->seq);
      w.i64(block->timestamp);
      w.bytes(block->merkle_root);
      for (const auto& plan : block->plans()) w.bytes(plan.serialize());
    }
  }

  const RunSummary s = world.run();

  const protocol::Metrics& m = s.metrics;
  fold_optional_tick(w, m.violation_start);
  fold_optional_tick(w, m.first_true_incident);
  fold_optional_tick(w, m.deviation_confirmed);
  fold_optional_tick(w, m.false_incident_injected);
  fold_optional_tick(w, m.false_incident_dismissed);
  fold_optional_tick(w, m.false_global_injected);
  fold_optional_tick(w, m.false_global_detected);
  fold_optional_tick(w, m.im_conflict_injected);
  fold_optional_tick(w, m.im_conflict_detected);
  fold_optional_tick(w, m.sham_alert_detected);
  for (const int counter :
       {m.vehicles_spawned, m.vehicles_exited, m.incident_reports, m.global_reports,
        m.verify_rounds, m.alarm_dismissals, m.evacuation_alerts,
        m.benign_self_evacuations, m.false_alarm_evacuations,
        m.malicious_reports_recorded, m.blocks_published,
        m.block_verification_failures, m.plan_request_retries, m.gap_block_requests,
        m.degraded_entries, m.degraded_crossings, m.im_crashes, m.im_restarts,
        m.im_courtesy_gaps}) {
    w.i64(counter);
  }

  const net::NetworkStats& n = s.net_stats;
  w.u64(n.packets_sent);
  w.u64(n.packets_delivered);
  w.u64(n.packets_dropped);
  w.u64(n.packets_out_of_range);
  w.u64(n.packets_duplicated);
  w.u64(n.packets_lost_outage);
  w.u64(n.bytes_sent);
  fold_kind_map(w, n.packets_by_kind);
  fold_kind_map(w, n.bytes_by_kind);
  fold_kind_map(w, n.dropped_by_kind);

  w.f64(s.throughput_vpm);
  w.f64(s.mean_crossing_ms);
  w.i64(s.active_at_end);
  w.i64(s.min_ground_truth_gap_violations);
  w.i64(s.legacy_spawned);
  w.i64(s.legacy_exited);

  return crypto::digest_hex(crypto::sha256(w.data()));
}

ScenarioConfig scenario(traffic::IntersectionKind kind, double vpm,
                        std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

TEST(TraceGolden, BenignCross4) {
  EXPECT_EQ(trace_digest(scenario(traffic::IntersectionKind::kCross4, 80, 1)),
            "0e83bbd0a51d8df2b9ea6241bfb16e70f3e62c285ccd24da7b3aa131a39b0e2b");
}

TEST(TraceGolden, DenseCross4) {
  EXPECT_EQ(trace_digest(scenario(traffic::IntersectionKind::kCross4, 120, 7)),
            "85792ecf2b608ab59daf55da1128614dbdd3daad0fa8dd3488f5432c413ee89c");
}

TEST(TraceGolden, MixedTrafficRoundabout) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kRoundabout3, 60, 3);
  cfg.legacy_fraction = 0.25;
  EXPECT_EQ(trace_digest(std::move(cfg)), "f14c0b8ae02954f23ab4190f1b0e782548ca72a633e9997207db0e889e227f89");
}

TEST(TraceGolden, DeviationAttackCross4) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 5);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  EXPECT_EQ(trace_digest(std::move(cfg)), "7aee66a07164ede3f6bf1b783fc7559c61fb310851d6166934911d7b4ea3587c");
}

// The IM crashes from 20 to 70 s, so vehicles that spawn meanwhile run out
// of plan retries and cross in degraded mode, sensing the conflict box from
// inside the physics phase; legacy traffic and a deviator share the road.
TEST(TraceGolden, ImOutageWithLegacyAndDeviator) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 11);
  cfg.network.fault.outages.push_back(net::Outage{kImNodeId, 20'000, 70'000});
  cfg.legacy_fraction = 0.2;
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  EXPECT_EQ(trace_digest(std::move(cfg)),
            "2ca8edf9c4bc25855c257c831c9ff24b2e70ee2864f07c32f8c9c1c62d5157e8");
}

// bench_world_step's scenario cut to 60 s: the junction saturates, so about
// 900 managed vehicles are live at the end and legacy car following (behind
// managed and behind legacy traffic), the gap audit (tens of thousands of
// close pairs) and the broadcast range scan all run at volume.
TEST(TraceGolden, SaturatedMixedNwadeOff) {
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 1500, 9);
  cfg.duration_ms = 60'000;
  cfg.legacy_fraction = 0.4;
  cfg.nwade.security_enabled = false;
  EXPECT_EQ(trace_digest(std::move(cfg)),
            "c16352c5931a43233340018269a57715bec149d48c8a58141f30525c892bf8a7");
}

TEST(TraceGolden, TelemetryTracingIsPurelyObservational) {
  // The observability layer's contract: enabling the event tracer (and the
  // always-on registry counters behind it) changes no decision anywhere, so
  // the golden digest is the untraced one, byte for byte.
  ScenarioConfig cfg = scenario(traffic::IntersectionKind::kCross4, 80, 1);
  cfg.trace_enabled = true;
  EXPECT_EQ(trace_digest(std::move(cfg)),
            "0e83bbd0a51d8df2b9ea6241bfb16e70f3e62c285ccd24da7b3aa131a39b0e2b");
}

}  // namespace
}  // namespace nwade::sim

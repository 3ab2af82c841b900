// Whole-stack telemetry integration (ctest label: obs): a traced World must
// (a) record the documented span taxonomy across every layer, (b) leave the
// simulation's decisions untouched, and (c) export byte-identical metrics
// snapshots and wall-stripped traces for identical seeded runs — including
// through the campaign engine at any pool size.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/support.h"
#include "sim/campaign.h"
#include "sim/world.h"

namespace nwade::sim {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed, bool trace) {
  ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 60;
  cfg.duration_ms = 60'000;
  cfg.seed = seed;
  cfg.trace_enabled = trace;
  return cfg;
}

ScenarioConfig attack_scenario(std::uint64_t seed, bool trace) {
  ScenarioConfig cfg = small_scenario(seed, trace);
  cfg.attack = protocol::attack_setting_by_name("V1");
  cfg.attack_time = 30'000;
  // Blind the IM's own sensors so incident reports take the distributed
  // verification path (Alg. 2/3) — that is the span chain under test.
  cfg.nwade.im_perception_radius_m = 0;
  return cfg;
}

bool has_event(const std::vector<util::trace::Event>& events, const char* cat,
               const char* name) {
  for (const util::trace::Event& e : events) {
    if (std::string(e.cat) == cat && std::string(e.name) == name) return true;
  }
  return false;
}

TEST(TelemetryWorld, UntracedWorldRecordsNoEventsButStillCounts) {
  World world(small_scenario(1, /*trace=*/false));
  const RunSummary s = world.run();
  EXPECT_TRUE(world.take_trace().empty());
  // The registry is always on: its counters replace the old hand-rolled
  // accounting, so they must agree with the rebuilt NetworkStats view.
  const auto& counters = s.metrics_snapshot.counters;
  EXPECT_EQ(counters.at("net.packets.sent"),
            static_cast<std::int64_t>(s.net_stats.packets_sent));
  EXPECT_EQ(counters.at("net.bytes.sent"),
            static_cast<std::int64_t>(s.net_stats.bytes_sent));
  EXPECT_EQ(counters.at("aim.plans_scheduled") > 0, true);
  EXPECT_EQ(counters.at("sim.steps"),
            static_cast<std::int64_t>(60'000 / 100));
  // Protocol silo folded as gauges.
  EXPECT_EQ(s.metrics_snapshot.gauges.at("protocol.vehicles_exited"),
            s.metrics.vehicles_exited);
}

TEST(TelemetryWorld, TracedRunRecordsTheSpanTaxonomy) {
  World world(attack_scenario(5, /*trace=*/true));
  world.run();
  const std::vector<util::trace::Event> events = world.take_trace();
  ASSERT_FALSE(events.empty());
  // sim: per-phase profiling spans.
  EXPECT_TRUE(has_event(events, "sim", "phase.events"));
  EXPECT_TRUE(has_event(events, "sim", "phase.physics"));
  EXPECT_TRUE(has_event(events, "sim", "phase.watch"));
  EXPECT_TRUE(has_event(events, "sim", "phase.gap_audit"));
  // aim/chain: unmanaged tracking, scheduler batch windows, block
  // packaging + verification.
  EXPECT_TRUE(has_event(events, "aim", "track_unmanaged"));
  EXPECT_TRUE(has_event(events, "aim", "process_window"));
  EXPECT_TRUE(has_event(events, "chain", "package"));
  EXPECT_TRUE(has_event(events, "chain", "verify_block"));
  // nwade: the detection timeline of the deviation attack.
  EXPECT_TRUE(has_event(events, "nwade", "incident_report"));
  EXPECT_TRUE(has_event(events, "nwade", "incident_report_received"));
  EXPECT_TRUE(has_event(events, "nwade", "verify_round_start"));
  EXPECT_TRUE(has_event(events, "nwade", "verify_round"));
}

TEST(TelemetryWorld, TracedRunRecordsBlockRejectionAndSelfEvacuation) {
  // A compromised IM issues conflicting plans: vehicles reject its block
  // (Algorithm 1) and evacuate on their own; both show on the timeline.
  ScenarioConfig cfg = small_scenario(3, /*trace=*/true);
  cfg.attack = protocol::attack_setting_by_name("IM");
  cfg.attack_time = 20'000;
  World world(cfg);
  const RunSummary s = world.run();
  ASSERT_GT(s.metrics.block_verification_failures, 0);
  const std::vector<util::trace::Event> events = world.take_trace();
  EXPECT_TRUE(has_event(events, "nwade", "reject_block"));
  EXPECT_TRUE(has_event(events, "nwade", "self_evacuation"));
}

TEST(TelemetryWorld, TracingDoesNotPerturbTheRun) {
  World off(attack_scenario(7, false));
  World on(attack_scenario(7, true));
  const RunSummary a = off.run();
  const RunSummary b = on.run();
  // Identical decisions and identical metrics, to the byte.
  EXPECT_EQ(a.metrics_snapshot.json(), b.metrics_snapshot.json());
  EXPECT_EQ(a.net_stats.packets_sent, b.net_stats.packets_sent);
  EXPECT_EQ(a.metrics.vehicles_exited, b.metrics.vehicles_exited);
  EXPECT_EQ(a.metrics.deviation_confirmed, b.metrics.deviation_confirmed);
}

TEST(TelemetryWorld, SeededRunsExportByteIdenticalTelemetry) {
  const auto run = [] {
    World world(attack_scenario(9, true));
    world.run();
    const std::vector<util::trace::Event> events = world.take_trace();
    // Wall-clock stripped: the documented deterministic comparison form.
    return util::trace::chrome_trace_json({events}, {"run"},
                                          /*include_wall=*/false);
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
  EXPECT_TRUE(bench::json_well_formed(first));
}

TEST(TelemetryWorld, CampaignExportsAreWellFormedAndPoolSizeIndependent) {
  CampaignConfig cfg;
  cfg.kinds = {traffic::IntersectionKind::kCross4};
  cfg.attacks = {"benign", "V1"};
  cfg.densities_vpm = {60.0};
  cfg.rounds = 1;
  cfg.duration_ms = 30'000;
  cfg.trace = true;

  cfg.threads = 1;
  const std::vector<CellResult> inline_results = run_campaign(cfg);
  cfg.threads = 3;
  const std::vector<CellResult> pooled_results = run_campaign(cfg);

  // Per-cell metrics block rides in the nwade-campaign-v1 rows.
  const std::string results_json = campaign_results_json(cfg, inline_results);
  EXPECT_NE(results_json.find("\"metrics\": {"), std::string::npos);
  EXPECT_EQ(results_json, campaign_results_json(cfg, pooled_results));

  const std::string metrics_json = campaign_metrics_json(cfg, inline_results);
  EXPECT_TRUE(bench::json_well_formed(metrics_json));
  EXPECT_NE(metrics_json.find("nwade-metrics-v1"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"merged\""), std::string::npos);
  EXPECT_EQ(metrics_json, campaign_metrics_json(cfg, pooled_results));

  // Chrome export: loadable structure, one labeled pid per cell, and (wall
  // stripped) byte-identical across pool sizes.
  const std::string trace_json =
      campaign_trace_json(inline_results, /*include_wall=*/false);
  EXPECT_TRUE(bench::json_well_formed(trace_json));
  EXPECT_NE(trace_json.find("process_name"), std::string::npos);
  EXPECT_NE(trace_json.find("4-way cross/V1/vpm60/r0"), std::string::npos);
  EXPECT_EQ(trace_json, campaign_trace_json(pooled_results, false));

  const std::string jsonl = campaign_trace_jsonl(inline_results, false);
  EXPECT_EQ(jsonl, campaign_trace_jsonl(pooled_results, false));
}

}  // namespace
}  // namespace nwade::sim

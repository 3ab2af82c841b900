// Quickstart: the NWADE public API in ~80 lines.
//
//   1. Build an intersection model.
//   2. Schedule travel plans with the reservation scheduler (the AIM layer).
//   3. Package plans into a signed blockchain block and verify it.
//   4. Run a complete simulated scenario and read the summary.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "aim/scheduler.h"
#include "chain/store.h"
#include "sim/world.h"

using namespace nwade;

int main() {
  // --- 1. An intersection ---------------------------------------------------
  traffic::IntersectionConfig icfg;
  icfg.kind = traffic::IntersectionKind::kCross4;
  const traffic::Intersection intersection = traffic::Intersection::build(icfg);
  std::printf("built a %s: %zu routes, %zu conflict zones\n",
              intersection_name(intersection.kind()), intersection.routes().size(),
              intersection.zones().size());

  // --- 2. Travel plans ---------------------------------------------------------
  aim::ReservationScheduler scheduler(intersection);
  const aim::TravelPlan p1 = scheduler.schedule(VehicleId{1}, /*route=*/0, {}, 0, 20.0);
  const aim::TravelPlan p2 = scheduler.schedule(VehicleId{2}, /*route=*/7, {}, 0, 20.0);
  std::printf("vehicle 1 enters the core at %.1f s, vehicle 2 at %.1f s\n",
              ticks_to_seconds(p1.core_entry), ticks_to_seconds(p2.core_entry));

  const auto conflicts = aim::find_plan_conflicts(intersection, {&p1, &p2}, 500);
  std::printf("plans are %s\n", conflicts.empty() ? "conflict-free" : "CONFLICTING");

  // --- 3. The travel-plan blockchain ---------------------------------------------
  Rng rng(7);
  const auto signer = crypto::RsaSigner::generate(rng, 1024);
  const chain::BlockPtr block = chain::Block::package(0, {}, 0, {p1, p2}, *signer);
  std::printf("block 0: %zu plans, root %.16s..., signature %zu bytes\n",
              block->plans().size(), crypto::digest_hex(block->merkle_root).c_str(),
              block->signature.size());

  chain::BlockStore store;
  const auto appended = store.append(block, *signer->verifier());
  std::printf("vehicle-side verification: %s\n", appended ? "accepted" : "rejected");

  // --- 4. A full scenario ----------------------------------------------------------
  sim::ScenarioConfig cfg;
  cfg.intersection = icfg;
  cfg.vehicles_per_minute = 80;
  cfg.duration_ms = 60'000;
  cfg.attack = protocol::attack_setting_by_name("V1");  // one malicious vehicle
  cfg.attack_time = 30'000;
  cfg.seed = 42;

  sim::World world(cfg);
  const sim::RunSummary summary = world.run();

  std::printf("\n60 s of traffic at 80 veh/min with one compromised vehicle:\n");
  std::printf("  spawned %d, exited %d (%.1f veh/min throughput)\n",
              summary.metrics.vehicles_spawned, summary.metrics.vehicles_exited,
              summary.throughput_vpm);
  if (summary.metrics.violation_start && summary.metrics.deviation_confirmed) {
    std::printf("  plan violation at %.1f s -> confirmed at %.1f s (%lld ms)\n",
                ticks_to_seconds(*summary.metrics.violation_start),
                ticks_to_seconds(*summary.metrics.deviation_confirmed),
                static_cast<long long>(*summary.metrics.deviation_detection_time()));
  }
  std::printf("  incident reports: %d, evacuation alerts: %d, packets: %llu\n",
              summary.metrics.incident_reports, summary.metrics.evacuation_alerts,
              static_cast<unsigned long long>(summary.net_stats.packets_sent));
  return 0;
}

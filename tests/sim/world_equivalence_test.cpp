// Lock-step equivalence of the World's sensor query: sense_around() (the
// exact scene's precomputed observations, filtered by distance, with
// visibility and exit read live) must answer exactly what a brute-force
// scan over every vehicle, written below from public calls, answers —
// every 5 s through each golden-trace scenario. The trace_golden digests
// pin the rest of the stepping end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/world.h"

namespace nwade::sim {
namespace {

// The four golden-trace scenarios (tests/sim/trace_golden_test.cpp) — same
// kinds, densities, seeds, and attack settings, so this suite checks the
// sensor query exactly where the digest locks watch for drift.
ScenarioConfig golden(traffic::IntersectionKind kind, double vpm,
                      std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::pair<std::string, ScenarioConfig>> golden_scenarios() {
  std::vector<std::pair<std::string, ScenarioConfig>> out;
  out.emplace_back("BenignCross4",
                   golden(traffic::IntersectionKind::kCross4, 80, 1));
  out.emplace_back("DenseCross4",
                   golden(traffic::IntersectionKind::kCross4, 120, 7));
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kRoundabout3, 60, 3);
    cfg.legacy_fraction = 0.25;  // exercises the car-following lookup
    out.emplace_back("MixedTrafficRoundabout", cfg);
  }
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 80, 5);
    cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
    out.emplace_back("DeviationAttackCross4", cfg);
  }
  return out;
}

// %a renders doubles exactly (hex float), so equality below means
// bit-identical, not merely close.
std::string render(const std::vector<protocol::Observation>& obs) {
  std::string out;
  char buf[256];
  for (const auto& o : obs) {
    std::snprintf(buf, sizeof(buf),
                  "[id=%llu b=%u m=%u c=%u len=%a pos=(%a,%a) v=%a h=%a]",
                  static_cast<unsigned long long>(o.id.value), o.traits.brand,
                  o.traits.model, o.traits.color, o.traits.length_m,
                  o.status.position.x, o.status.position.y,
                  o.status.speed_mps, o.status.heading_rad);
    out += buf;
  }
  return out;
}

/// The oracle: managed vehicles under the World's visibility rule (staged
/// ones — no plan, not yet moving — are invisible), then legacy vehicles
/// found by probing observe() over the whole id range; each by ascending id.
std::vector<protocol::Observation> brute_force_sense(World& world,
                                                     geom::Vec2 center,
                                                     double radius,
                                                     VehicleId exclude) {
  std::vector<protocol::Observation> out;
  for (const VehicleId id : world.vehicle_ids()) {
    const protocol::VehicleNode* v = world.vehicle(id);
    if (id == exclude || v->exited()) continue;
    if (!v->has_plan() && v->progress_s() <= 0.5) continue;
    const traffic::VehicleStatus st = v->ground_truth();
    if (st.position.distance_to(center) > radius) continue;
    out.push_back(protocol::Observation{id, v->traits(), st});
  }
  const std::uint64_t base = world.config().vehicle_id_base;
  const std::size_t arrivals = World::arrival_count(world.config());
  for (std::uint64_t k = 1; k <= arrivals; ++k) {
    const VehicleId id{base + k};
    if (id == exclude || world.vehicle(id) != nullptr) continue;
    const auto obs = world.observe(id);
    if (!obs || obs->status.position.distance_to(center) > radius) continue;
    out.push_back(*obs);
  }
  return out;
}

TEST(WorldEquivalence, SenseAroundMatchesBruteForceScan) {
  // Probes spread over the junction: the staging approaches, the conflict
  // core, and a far point whose disc exceeds the occupied area.
  const struct {
    geom::Vec2 center;
    double radius;
  } probes[] = {
      {{0.0, 0.0}, 20.0},   {{0.0, 0.0}, 45.0},  {{32.0, 0.0}, 45.0},
      {{0.0, -64.0}, 30.0}, {{-40.0, 40.0}, 120.0},
  };

  for (const auto& [name, cfg] : golden_scenarios()) {
    SCOPED_TRACE(name);
    World world(cfg);
    std::size_t observed = 0;
    for (Tick t = 5'000; t <= cfg.duration_ms; t += 5'000) {
      world.run_until(t);
      const auto check = [&](geom::Vec2 center, double radius,
                             VehicleId exclude) {
        const auto expected = brute_force_sense(world, center, radius, exclude);
        ASSERT_EQ(render(world.sense_around(center, radius, exclude)),
                  render(expected))
            << name << " sense_around mismatch at t=" << t << " center=("
            << center.x << "," << center.y << ") r=" << radius
            << " exclude=" << exclude.value;
        observed += expected.size();
      };
      for (const auto& p : probes) {
        check(p.center, p.radius, VehicleId{});
        // The excluded id drops out and nothing else changes.
        const auto seen = brute_force_sense(world, p.center, p.radius, VehicleId{});
        if (!seen.empty()) check(p.center, p.radius, seen.front().id);
      }
      // Watcher discs, as the watch phase queries them: every fourth managed
      // vehicle at its own position, itself excluded. These reach the
      // staging points at the zone edge, which the fixed probes do not.
      const std::vector<VehicleId> ids = world.vehicle_ids();
      for (std::size_t k = 0; k < ids.size(); k += 4) {
        const protocol::VehicleNode* v = world.vehicle(ids[k]);
        if (v->exited()) continue;
        check(v->position(), cfg.nwade.sensing_radius_m, ids[k]);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(observed, 0u) << name << ": the probes never saw a vehicle";
  }
}

// The broadcast range scan's channel accounting: packets_out_of_range
// counts every non-receiver once, as a range check of each pair does. The
// expected values were produced by the all-pairs broadcast scan on this
// scenario. The radius is cut to 300 m so some nodes fall out of range (at
// the default 1500 ft every vehicle of the cross4 zone is in range and the
// count is 0).
TEST(WorldEquivalence, OutOfRangeAccountingMatches) {
  ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 120, 7);
  cfg.duration_ms = 30'000;
  cfg.network.comm_radius_m = 300.0;
  const RunSummary s = World(cfg).run();
  EXPECT_EQ(s.net_stats.packets_out_of_range, 296u);
  EXPECT_EQ(s.net_stats.packets_sent, 2760u);
  EXPECT_EQ(s.net_stats.packets_delivered, 2700u);
}

}  // namespace
}  // namespace nwade::sim

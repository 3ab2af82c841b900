// TrafficLightScheduler: phase windows, headway, and plan shape.
#include "aim/baseline.h"

#include <gtest/gtest.h>

namespace nwade::aim {
namespace {

traffic::Intersection make_ix() {
  traffic::IntersectionConfig cfg;
  cfg.kind = traffic::IntersectionKind::kCross4;
  return traffic::Intersection::build(cfg);
}

TEST(TrafficLight, GreenWindowsRotateThroughLegs) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  // Leg k is green during [k*slot, k*slot + green).
  EXPECT_TRUE(lights.is_green(0, 0));
  EXPECT_TRUE(lights.is_green(0, 11'999));
  EXPECT_FALSE(lights.is_green(0, 12'000));  // clearance
  EXPECT_FALSE(lights.is_green(1, 14'999));
  EXPECT_TRUE(lights.is_green(1, 15'000));
  // Wraps into the next cycle.
  EXPECT_TRUE(lights.is_green(0, lights.cycle_ms()));
}

TEST(TrafficLight, NegativeTimeIsRed) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  EXPECT_FALSE(lights.is_green(0, -1));
}

TEST(TrafficLight, ClearanceSeparatesPhases) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  // During any clearance interval no leg is green.
  const Tick t = kGreenMs + kClearanceMs / 2;
  for (int leg = 0; leg < 4; ++leg) EXPECT_FALSE(lights.is_green(leg, t));
}

TEST(TrafficLight, HeadwayBetweenSameLegEntries) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  const TravelPlan a = lights.schedule(VehicleId{1}, 0, {}, 0, 20.0);
  const TravelPlan b = lights.schedule(VehicleId{2}, 0, {}, 0, 20.0);
  EXPECT_GE(b.core_entry - a.core_entry, kServiceHeadwayMs);
}

TEST(TrafficLight, DifferentLegsIndependentUntilPhase) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  // Routes from different legs have independent headway clocks.
  const TravelPlan a = lights.schedule(VehicleId{1}, 0, {}, 0, 20.0);
  int other_leg_route = -1;
  for (const auto& r : ix.routes()) {
    if (r.entry_leg == 1) {
      other_leg_route = r.id;
      break;
    }
  }
  const TravelPlan b = lights.schedule(VehicleId{2}, other_leg_route, {}, 0, 20.0);
  EXPECT_TRUE(lights.is_green(0, a.core_entry));
  EXPECT_TRUE(lights.is_green(1, b.core_entry));
}

TEST(TrafficLight, PlanShapeMatchesProfileContract) {
  const auto ix = make_ix();
  TrafficLightScheduler lights(ix);
  const TravelPlan p = lights.schedule(VehicleId{1}, 0, {}, 1000, 20.0);
  EXPECT_EQ(p.issued_at, 1000);
  EXPECT_GT(p.core_entry, 1000);
  EXPECT_GT(p.core_exit, p.core_entry);
  // Position function is monotone non-decreasing.
  double prev = -1;
  for (Tick t = 1000; t < p.core_exit + 10'000; t += 500) {
    const double s = p.s_at(t);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(TrafficLight, CycleScalesWithLegCount) {
  traffic::IntersectionConfig cfg5;
  cfg5.kind = traffic::IntersectionKind::kIrregular5;
  const auto ix5 = traffic::Intersection::build(cfg5);
  TrafficLightScheduler lights(ix5);
  EXPECT_EQ(lights.cycle_ms(), 5 * (kGreenMs + kClearanceMs));
}

}  // namespace
}  // namespace nwade::aim

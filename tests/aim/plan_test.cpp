// TravelPlan: kinematic queries, serialization, conflict detection.
#include "aim/plan.h"

#include <gtest/gtest.h>

#include <limits>

namespace nwade::aim {
namespace {

using traffic::Intersection;
using traffic::IntersectionConfig;
using traffic::IntersectionKind;

TravelPlan simple_plan(VehicleId id, Tick start, double v, double s0 = 0) {
  TravelPlan p;
  p.vehicle = id;
  p.segments = {PlanSegment{start, s0, v}};
  p.issued_at = start;
  return p;
}

TEST(TravelPlan, PositionBeforeStartIsInitial) {
  const TravelPlan p = simple_plan(VehicleId{1}, 1000, 10.0, 5.0);
  EXPECT_DOUBLE_EQ(p.s_at(0), 5.0);
  EXPECT_DOUBLE_EQ(p.s_at(1000), 5.0);
  EXPECT_DOUBLE_EQ(p.v_at(0), 0.0);
}

TEST(TravelPlan, ConstantSpeedAdvance) {
  const TravelPlan p = simple_plan(VehicleId{1}, 0, 10.0);
  EXPECT_DOUBLE_EQ(p.s_at(1000), 10.0);
  EXPECT_DOUBLE_EQ(p.s_at(2500), 25.0);
  EXPECT_DOUBLE_EQ(p.v_at(500), 10.0);
}

TEST(TravelPlan, MultiSegmentProfile) {
  TravelPlan p;
  p.vehicle = VehicleId{1};
  // Wait 2 s at s=0, cruise at 5 m/s for 10 s to s=50, then 20 m/s.
  p.segments = {PlanSegment{0, 0, 0}, PlanSegment{2000, 0, 5},
                PlanSegment{12000, 50, 20}};
  EXPECT_DOUBLE_EQ(p.s_at(1000), 0.0);
  EXPECT_DOUBLE_EQ(p.s_at(4000), 10.0);
  EXPECT_DOUBLE_EQ(p.s_at(12000), 50.0);
  EXPECT_DOUBLE_EQ(p.s_at(13000), 70.0);
  EXPECT_DOUBLE_EQ(p.v_at(1000), 0.0);
  EXPECT_DOUBLE_EQ(p.v_at(5000), 5.0);
  EXPECT_DOUBLE_EQ(p.v_at(20000), 20.0);
}

TEST(TravelPlan, TimeAtInvertsPosition) {
  TravelPlan p;
  p.segments = {PlanSegment{0, 0, 0}, PlanSegment{2000, 0, 5},
                PlanSegment{12000, 50, 20}};
  EXPECT_EQ(p.time_at(0).value(), 0);
  EXPECT_EQ(p.time_at(10).value(), 4000);
  EXPECT_EQ(p.time_at(50).value(), 12000);
  EXPECT_EQ(p.time_at(70).value(), 13000);
  // Round trip: s_at(time_at(s)) == s for positions on the profile.
  for (double s : {1.0, 25.0, 49.0, 100.0}) {
    EXPECT_NEAR(p.s_at(p.time_at(s).value()), s, 0.05) << "s=" << s;
  }
}

TEST(TravelPlan, TimeAtUnreachableReturnsNullopt) {
  TravelPlan p;
  // Cruise to s=30 then stop forever.
  p.segments = {PlanSegment{0, 0, 10}, PlanSegment{3000, 30, 0}};
  EXPECT_TRUE(p.time_at(29).has_value());
  EXPECT_FALSE(p.time_at(31).has_value());
}

TEST(TravelPlan, SerializationRoundTrip) {
  TravelPlan p;
  p.vehicle = VehicleId{42};
  p.route_id = 7;
  p.traits = {3, 14, 2, 4.8};
  p.status_at_issue = {{12.5, -90.25}, 17.0, 1.57};
  p.segments = {PlanSegment{100, 0, 0}, PlanSegment{2100, 0, 12.5}};
  p.issued_at = 100;
  p.core_entry = 20100;
  p.core_exit = 24100;
  p.evacuation = true;

  const Bytes bytes = p.serialize();
  const auto back = TravelPlan::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
  EXPECT_TRUE(back->evacuation);
  EXPECT_DOUBLE_EQ(back->status_at_issue.position.x, 12.5);
}

TEST(TravelPlan, DeserializeRejectsCorruptData) {
  TravelPlan p = simple_plan(VehicleId{1}, 0, 10.0);
  Bytes bytes = p.serialize();
  bytes.pop_back();
  EXPECT_FALSE(TravelPlan::deserialize(bytes).has_value());
  EXPECT_FALSE(TravelPlan::deserialize(Bytes{}).has_value());
  Bytes garbage(10, 0xff);
  EXPECT_FALSE(TravelPlan::deserialize(garbage).has_value());
}

TEST(TravelPlan, DeserializeRejectsStartsOutsideSimTime) {
  // Honest plans start at sim times and never step back; a decoded plan
  // whose starts do would overflow s_at()'s `t - start`.
  constexpr Tick kMin = std::numeric_limits<Tick>::min();
  TravelPlan p = simple_plan(VehicleId{1}, 0, 10.0);
  p.segments = {PlanSegment{0, 0, 10.0}, PlanSegment{kMin, 5, 10.0}};
  EXPECT_FALSE(TravelPlan::deserialize(p.serialize()).has_value());
  p.segments = {PlanSegment{kMin, 0, 10.0}};
  EXPECT_FALSE(TravelPlan::deserialize(p.serialize()).has_value());
  p.segments = {PlanSegment{0, 0, 10.0}, PlanSegment{Tick{1} << 53, 5, 10.0}};
  EXPECT_FALSE(TravelPlan::deserialize(p.serialize()).has_value());
  // Equal and increasing starts up to 2^53 - 1 are honest and keep their bits.
  p.segments = {PlanSegment{0, 0, 10.0}, PlanSegment{0, 0, 5.0},
                PlanSegment{(Tick{1} << 53) - 1, 5, 10.0}};
  const auto back = TravelPlan::deserialize(p.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), p.serialize());
}

TEST(TravelPlan, SerializationIsCanonical) {
  const TravelPlan p = simple_plan(VehicleId{9}, 50, 8.0);
  EXPECT_EQ(p.serialize(), p.serialize());
}

class PlanConflictTest : public ::testing::Test {
 protected:
  static Intersection make() {
    IntersectionConfig cfg;
    cfg.kind = IntersectionKind::kCross4;
    return Intersection::build(cfg);
  }
  Intersection ix_ = make();

  /// Finds the route ids of a known conflicting pair (left from leg 0,
  /// straight from opposing leg 2).
  std::pair<int, int> conflicting_routes() const {
    int left0 = -1, straight2 = -1;
    for (const auto& r : ix_.routes()) {
      if (r.entry_leg == 0 && r.turn == traffic::Turn::kLeft) left0 = r.id;
      if (r.entry_leg == 2 && r.turn == traffic::Turn::kStraight) straight2 = r.id;
    }
    return {left0, straight2};
  }

  /// A plan crossing the given route with core entry at `core_entry`.
  TravelPlan crossing_plan(VehicleId id, int route_id, Tick core_entry) const {
    const auto& route = ix_.route(route_id);
    TravelPlan p;
    p.vehicle = id;
    p.route_id = route_id;
    const double v = 15.0;
    const Tick t0 = core_entry - seconds_to_ticks(route.core_begin / v);
    p.segments = {PlanSegment{t0, 0, v}};
    p.issued_at = t0;
    p.core_entry = core_entry;
    p.core_exit = core_entry + seconds_to_ticks((route.core_end - route.core_begin) / v);
    return p;
  }
};

TEST_F(PlanConflictTest, SimultaneousCrossingConflicts) {
  const auto [a, b] = conflicting_routes();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  const TravelPlan pa = crossing_plan(VehicleId{1}, a, 60000);
  const TravelPlan pb = crossing_plan(VehicleId{2}, b, 60000);
  const auto conflicts = find_plan_conflicts(ix_, {&pa, &pb}, 500);
  EXPECT_FALSE(conflicts.empty());
}

TEST_F(PlanConflictTest, WellSeparatedCrossingsDoNotConflict) {
  const auto [a, b] = conflicting_routes();
  const TravelPlan pa = crossing_plan(VehicleId{1}, a, 60000);
  const TravelPlan pb = crossing_plan(VehicleId{2}, b, 120000);
  EXPECT_TRUE(find_plan_conflicts(ix_, {&pa, &pb}, 500).empty());
}

TEST_F(PlanConflictTest, SameRouteTailgatingConflicts) {
  const TravelPlan pa = crossing_plan(VehicleId{1}, 0, 60000);
  const TravelPlan pb = crossing_plan(VehicleId{2}, 0, 60100);  // 100 ms behind
  const auto conflicts = find_plan_conflicts(ix_, {&pa, &pb}, 500);
  ASSERT_FALSE(conflicts.empty());
  EXPECT_EQ(conflicts[0].zone_id, -1);  // headway violation marker
}

TEST_F(PlanConflictTest, SameRouteProperHeadwayOk) {
  const TravelPlan pa = crossing_plan(VehicleId{1}, 0, 60000);
  const TravelPlan pb = crossing_plan(VehicleId{2}, 0, 75000);
  EXPECT_TRUE(find_plan_conflicts(ix_, {&pa, &pb}, 500).empty());
}

TEST_F(PlanConflictTest, NonConflictingRoutesNeverConflict) {
  // Opposite right turns never share a zone.
  int right0 = -1, right2 = -1;
  for (const auto& r : ix_.routes()) {
    if (r.entry_leg == 0 && r.turn == traffic::Turn::kRight) right0 = r.id;
    if (r.entry_leg == 2 && r.turn == traffic::Turn::kRight) right2 = r.id;
  }
  const TravelPlan pa = crossing_plan(VehicleId{1}, right0, 60000);
  const TravelPlan pb = crossing_plan(VehicleId{2}, right2, 60000);
  EXPECT_TRUE(find_plan_conflicts(ix_, {&pa, &pb}, 2000).empty());
}

TEST_F(PlanConflictTest, ExpectedStatusTracksGeometry) {
  const TravelPlan p = crossing_plan(VehicleId{1}, 0, 60000);
  const auto& route = ix_.route(0);
  const auto st = p.expected_status(route, 60000);
  // At core entry the vehicle must be at the core_begin point.
  const geom::Vec2 expected = route.path.point_at(route.core_begin);
  EXPECT_NEAR(st.position.x, expected.x, 0.1);
  EXPECT_NEAR(st.position.y, expected.y, 0.1);
  EXPECT_DOUBLE_EQ(st.speed_mps, 15.0);
}

}  // namespace
}  // namespace nwade::aim

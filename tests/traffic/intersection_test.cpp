// Intersection builders: structural invariants for all five layouts, plus
// layout-specific properties (CFI removes the core left-vs-opposing-through
// conflict; DDI crossovers conflict; roundabout serializes the ring).
#include "traffic/intersection.h"

#include <gtest/gtest.h>

#include <set>

namespace nwade::traffic {
namespace {

IntersectionConfig config_for(IntersectionKind kind) {
  IntersectionConfig cfg;
  cfg.kind = kind;
  return cfg;
}

class AllKindsTest : public ::testing::TestWithParam<IntersectionKind> {
 protected:
  Intersection ix_ = Intersection::build(config_for(GetParam()));
};

TEST_P(AllKindsTest, HasRoutesAndLegs) {
  EXPECT_GT(ix_.leg_count(), 2);
  EXPECT_FALSE(ix_.routes().empty());
  // Every leg originates at least two routes.
  for (int leg = 0; leg < ix_.leg_count(); ++leg) {
    EXPECT_GE(ix_.routes_from_leg(leg).size(), 2u) << "leg " << leg;
  }
}

TEST_P(AllKindsTest, RouteIdsAreDense) {
  for (std::size_t i = 0; i < ix_.routes().size(); ++i) {
    EXPECT_EQ(ix_.routes()[i].id, static_cast<int>(i));
  }
}

TEST_P(AllKindsTest, RoutePathsAreWellFormed) {
  const auto& cfg = ix_.config();
  for (const Route& r : ix_.routes()) {
    EXPECT_FALSE(r.path.empty()) << "route " << r.id;
    EXPECT_GT(r.core_end, r.core_begin) << "route " << r.id;
    EXPECT_LE(r.core_end, r.path.length() + 1e-6) << "route " << r.id;
    // Approach piece has the configured length.
    EXPECT_NEAR(r.core_begin, cfg.approach_length_m, 1e-6) << "route " << r.id;
    EXPECT_NE(r.entry_leg, r.exit_leg) << "route " << r.id;
  }
}

TEST_P(AllKindsTest, ConflictZonesExist) {
  // Any real intersection has conflicting movements.
  EXPECT_FALSE(ix_.zones().empty());
}

TEST_P(AllKindsTest, ZoneWindowsLieInsideCores) {
  for (const Zone& z : ix_.zones()) {
    const Route& a = ix_.route(z.route_a);
    const Route& b = ix_.route(z.route_b);
    EXPECT_GE(z.a_begin, a.core_begin - 1e-6);
    EXPECT_LE(z.a_end, a.core_end + 1e-6);
    EXPECT_GE(z.b_begin, b.core_begin - 1e-6);
    EXPECT_LE(z.b_end, b.core_end + 1e-6);
    EXPECT_LE(z.a_begin, z.a_end);
    EXPECT_LE(z.b_begin, z.b_end);
  }
}

TEST_P(AllKindsTest, ZoneRefsMatchZones) {
  std::size_t ref_count = 0;
  for (const Route& r : ix_.routes()) ref_count += ix_.zones_for(r.id).size();
  EXPECT_EQ(ref_count, 2 * ix_.zones().size());
  for (const Route& r : ix_.routes()) {
    for (const ZoneRef& ref : ix_.zones_for(r.id)) {
      const Zone& z = ix_.zones()[static_cast<std::size_t>(ref.zone_id)];
      EXPECT_TRUE(z.route_a == r.id || z.route_b == r.id);
      if (z.route_a == r.id) {
        EXPECT_DOUBLE_EQ(ref.begin, z.a_begin);
      } else {
        EXPECT_DOUBLE_EQ(ref.begin, z.b_begin);
      }
    }
  }
}

TEST_P(AllKindsTest, TurnWeightsSumToOne) {
  for (int leg = 0; leg < ix_.leg_count(); ++leg) {
    const auto weights = ix_.turn_weights(leg);
    EXPECT_EQ(weights.size(), ix_.routes_from_leg(leg).size());
    double total = 0;
    for (double w : weights) {
      EXPECT_GT(w, 0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_P(AllKindsTest, ConflictsAreGeometricallyReal) {
  // Re-check a sample of zones: the two paths really do come close there.
  const auto& zones = ix_.zones();
  for (std::size_t i = 0; i < zones.size(); i += std::max<std::size_t>(1, zones.size() / 10)) {
    const Zone& z = zones[i];
    const Route& a = ix_.route(z.route_a);
    const Route& b = ix_.route(z.route_b);
    const geom::Vec2 pa = a.path.point_at((z.a_begin + z.a_end) / 2);
    const auto [dist, sb] = b.path.project(pa);
    EXPECT_LE(dist, ix_.config().conflict_clearance_m + 1.5)
        << "zone " << z.id << " routes " << z.route_a << "," << z.route_b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllKindsTest, ::testing::ValuesIn(kAllIntersectionKinds),
    [](const ::testing::TestParamInfo<IntersectionKind>& info) {
      switch (info.param) {
        case IntersectionKind::kRoundabout3: return "Roundabout3";
        case IntersectionKind::kCross4: return "Cross4";
        case IntersectionKind::kIrregular5: return "Irregular5";
        case IntersectionKind::kCfi4: return "Cfi4";
        case IntersectionKind::kDdi4: return "Ddi4";
      }
      return "Unknown";
    });

TEST(IntersectionTokens, EveryKindRoundTripsThroughItsToken) {
  std::set<IntersectionKind> seen;
  for (const IntersectionToken& entry : kIntersectionTokens) {
    IntersectionKind parsed = IntersectionKind::kCross4;
    ASSERT_TRUE(parse_intersection_token(entry.token, parsed)) << entry.token;
    EXPECT_EQ(parsed, entry.kind);
    seen.insert(entry.kind);
  }
  EXPECT_EQ(seen.size(), std::size(kAllIntersectionKinds));
  IntersectionKind untouched = IntersectionKind::kDdi4;
  EXPECT_FALSE(parse_intersection_token("4-way cross", untouched));
  EXPECT_FALSE(parse_intersection_token("", untouched));
  EXPECT_EQ(untouched, IntersectionKind::kDdi4);
}

// --- Layout-specific structure ------------------------------------------------

TEST(Cross4, HasTwelveRoutes) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kCross4));
  EXPECT_EQ(ix.routes().size(), 12u);
  // Each leg: exactly one left, straight, right.
  for (int leg = 0; leg < 4; ++leg) {
    std::multiset<Turn> turns;
    for (int id : ix.routes_from_leg(leg)) turns.insert(ix.route(id).turn);
    EXPECT_EQ(turns.count(Turn::kLeft), 1u);
    EXPECT_EQ(turns.count(Turn::kStraight), 1u);
    EXPECT_EQ(turns.count(Turn::kRight), 1u);
  }
}

TEST(Cross4, LeftConflictsWithOpposingThrough) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kCross4));
  // Find the left from leg 0 and the straight from leg 2 (opposing).
  int left0 = -1, straight2 = -1;
  for (const Route& r : ix.routes()) {
    if (r.entry_leg == 0 && r.turn == Turn::kLeft) left0 = r.id;
    if (r.entry_leg == 2 && r.turn == Turn::kStraight) straight2 = r.id;
  }
  ASSERT_GE(left0, 0);
  ASSERT_GE(straight2, 0);
  bool found = false;
  for (const Zone& z : ix.zones()) {
    if ((z.route_a == left0 && z.route_b == straight2) ||
        (z.route_a == straight2 && z.route_b == left0)) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "4-way cross must have the classic left-vs-through conflict";
}

TEST(Cross4, RightTurnsFromAdjacentLegsDontConflict) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kCross4));
  int right0 = -1, right2 = -1;
  for (const Route& r : ix.routes()) {
    if (r.entry_leg == 0 && r.turn == Turn::kRight) right0 = r.id;
    if (r.entry_leg == 2 && r.turn == Turn::kRight) right2 = r.id;
  }
  for (const Zone& z : ix.zones()) {
    EXPECT_FALSE((z.route_a == right0 && z.route_b == right2) ||
                 (z.route_a == right2 && z.route_b == right0))
        << "opposite right turns should not conflict";
  }
}

TEST(Cfi4, CoreLeftVsOpposingThroughConflictRemoved) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kCfi4));
  int left0 = -1, straight2 = -1;
  for (const Route& r : ix.routes()) {
    if (r.entry_leg == 0 && r.turn == Turn::kLeft) left0 = r.id;
    if (r.entry_leg == 2 && r.turn == Turn::kStraight) straight2 = r.id;
  }
  ASSERT_GE(left0, 0);
  ASSERT_GE(straight2, 0);
  // The pair may still conflict at the upstream crossover, but not inside
  // the junction core (near the stop line). The left route's displaced turn
  // starts at most 25 m (cross_near) past its core start + crossover length.
  const Route& left = ix.route(left0);
  for (const Zone& z : ix.zones()) {
    const bool match = (z.route_a == left0 && z.route_b == straight2) ||
                       (z.route_a == straight2 && z.route_b == left0);
    if (!match) continue;
    const double begin_on_left = (z.route_a == left0) ? z.a_begin : z.b_begin;
    // Conflict must be in the crossover (first ~40 m of the core span),
    // not at the junction itself.
    EXPECT_LT(begin_on_left - left.core_begin, 45.0)
        << "CFI left/opposing-through conflict must be upstream, not in core";
  }
}

TEST(Ddi4, ThroughMovementsCrossTwice) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kDdi4));
  int east = -1, west = -1;  // the two arterial through routes
  for (const Route& r : ix.routes()) {
    if (r.turn != Turn::kStraight) continue;
    if (r.entry_leg == 0) east = r.id;
    if (r.entry_leg == 2) west = r.id;
  }
  ASSERT_GE(east, 0);
  ASSERT_GE(west, 0);
  int crossings = 0;
  for (const Zone& z : ix.zones()) {
    if ((z.route_a == east && z.route_b == west) ||
        (z.route_a == west && z.route_b == east)) {
      ++crossings;
    }
  }
  EXPECT_EQ(crossings, 2) << "DDI arterial throughs must meet at both crossovers";
}

TEST(Ddi4, MinorLegsHaveNoStraight) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kDdi4));
  for (int leg : {1, 3}) {
    for (int id : ix.routes_from_leg(leg)) {
      EXPECT_NE(ix.route(id).turn, Turn::kStraight);
    }
  }
}

TEST(Roundabout3, AllRoutesShareTheRing) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kRoundabout3));
  EXPECT_EQ(ix.routes().size(), 6u);
  // Routes entering from different legs conflict via the shared ring
  // whenever their arcs overlap; at minimum each route conflicts with some
  // other route.
  std::set<int> routes_in_zones;
  for (const Zone& z : ix.zones()) {
    routes_in_zones.insert(z.route_a);
    routes_in_zones.insert(z.route_b);
  }
  EXPECT_EQ(routes_in_zones.size(), ix.routes().size());
}

TEST(Irregular5, TwentyRoutesAllMovementsClassified) {
  const auto ix = Intersection::build(config_for(IntersectionKind::kIrregular5));
  EXPECT_EQ(ix.routes().size(), 20u);
  for (int leg = 0; leg < 5; ++leg) {
    EXPECT_EQ(ix.routes_from_leg(leg).size(), 4u);
  }
}

}  // namespace
}  // namespace nwade::traffic

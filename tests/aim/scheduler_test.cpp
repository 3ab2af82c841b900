// ReservationScheduler: the core safety invariant is that every batch of
// plans it emits is conflict-free under find_plan_conflicts, at every
// intersection type and demand level. Plus evacuation/recovery behaviour.
#include "aim/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "aim/baseline.h"
#include "traffic/arrivals.h"

namespace nwade::aim {
namespace {

using traffic::ArrivalGenerator;
using traffic::Intersection;
using traffic::IntersectionConfig;
using traffic::IntersectionKind;

Intersection make_ix(IntersectionKind kind) {
  IntersectionConfig cfg;
  cfg.kind = kind;
  return Intersection::build(cfg);
}

TEST(Scheduler, FirstVehicleCrossesAtFullSpeed) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  const TravelPlan p = sched.schedule(VehicleId{1}, 0, {}, 0, 20.0);
  const double limit = ix.config().limits.speed_limit_mps;
  const Tick expected_entry = seconds_to_ticks(ix.route(0).core_begin / limit);
  EXPECT_EQ(p.core_entry, expected_entry);
  EXPECT_GT(p.core_exit, p.core_entry);
  // No waiting segment; cruise speed is the limit (up to tick rounding).
  EXPECT_NEAR(p.segments.front().v_mps, limit, 0.01);
}

TEST(Scheduler, ConflictingVehiclesAreSeparated) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  // Two vehicles on a conflicting pair requesting at the same instant.
  int left0 = -1, straight2 = -1;
  for (const auto& r : ix.routes()) {
    if (r.entry_leg == 0 && r.turn == traffic::Turn::kLeft) left0 = r.id;
    if (r.entry_leg == 2 && r.turn == traffic::Turn::kStraight) straight2 = r.id;
  }
  const TravelPlan a = sched.schedule(VehicleId{1}, left0, {}, 0, 20.0);
  const TravelPlan b = sched.schedule(VehicleId{2}, straight2, {}, 0, 20.0);
  EXPECT_TRUE(find_plan_conflicts(ix, {&a, &b}, 500).empty());
  // The second vehicle must have been delayed.
  EXPECT_GT(b.core_entry, a.core_entry);
}

TEST(Scheduler, SameRouteVehiclesKeepHeadway) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  const TravelPlan a = sched.schedule(VehicleId{1}, 0, {}, 0, 20.0);
  const TravelPlan b = sched.schedule(VehicleId{2}, 0, {}, 100, 20.0);
  EXPECT_TRUE(find_plan_conflicts(ix, {&a, &b}, 500).empty());
  EXPECT_GE(b.core_entry, a.core_exit);
}

// The headline invariant, swept across every intersection kind and density.
struct SweepParam {
  IntersectionKind kind;
  double vpm;
};

class ScheduleSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ScheduleSweepTest, AllPlansMutuallyConflictFree) {
  const auto ix = make_ix(GetParam().kind);
  ReservationScheduler sched(ix);
  ArrivalGenerator gen(ix, GetParam().vpm, Rng(2024));
  const auto arrivals = gen.generate(3 * 60 * 1000);

  std::vector<TravelPlan> plans;
  plans.reserve(arrivals.size());
  std::uint64_t next = 1;
  for (const auto& a : arrivals) {
    plans.push_back(
        sched.schedule(VehicleId{next++}, a.route_id, a.traits, a.time,
                       a.initial_speed_mps));
  }
  std::vector<const TravelPlan*> ptrs;
  for (const auto& p : plans) ptrs.push_back(&p);
  const auto conflicts = find_plan_conflicts(ix, ptrs, 500);
  EXPECT_TRUE(conflicts.empty())
      << conflicts.size() << " conflicts among " << plans.size() << " plans; first: "
      << (conflicts.empty()
              ? ""
              : "vehicles " + std::to_string(conflicts[0].first.value) + "," +
                    std::to_string(conflicts[0].second.value) + " zone " +
                    std::to_string(conflicts[0].zone_id));
}

TEST_P(ScheduleSweepTest, PlansRespectRequestTime) {
  const auto ix = make_ix(GetParam().kind);
  ReservationScheduler sched(ix);
  ArrivalGenerator gen(ix, GetParam().vpm, Rng(7));
  std::uint64_t next = 1;
  for (const auto& a : gen.generate(60 * 1000)) {
    const TravelPlan p =
        sched.schedule(VehicleId{next++}, a.route_id, a.traits, a.time, 20.0);
    EXPECT_EQ(p.issued_at, a.time);
    EXPECT_GT(p.core_entry, a.time);
    EXPECT_GE(p.core_exit, p.core_entry);
    // Segments start at or after the request.
    EXPECT_GE(p.segments.front().start, a.time);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndDensities, ScheduleSweepTest,
    ::testing::Values(SweepParam{IntersectionKind::kCross4, 20},
                      SweepParam{IntersectionKind::kCross4, 80},
                      SweepParam{IntersectionKind::kCross4, 120},
                      SweepParam{IntersectionKind::kRoundabout3, 60},
                      SweepParam{IntersectionKind::kIrregular5, 80},
                      SweepParam{IntersectionKind::kCfi4, 80},
                      SweepParam{IntersectionKind::kDdi4, 80}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = intersection_name(info.param.kind);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_" + std::to_string(static_cast<int>(info.param.vpm));
    });

TEST(Scheduler, ReleaseBeforeFreesMemory) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  for (int i = 0; i < 50; ++i) {
    sched.schedule(VehicleId{static_cast<std::uint64_t>(i + 1)}, i % 12, {},
                   i * 2000, 20.0);
  }
  const std::size_t before = sched.reservation_count();
  ASSERT_GT(before, 0u);
  sched.release_before(kTickMax);
  EXPECT_EQ(sched.reservation_count(), 0u);
}

TEST(Scheduler, RescheduleJustShortOfTheCoreAsksForAFutureEntry) {
  // A vehicle stopped 2.2 mm short of the core (world_test's V1 and V2
  // attack runs replan one so): the rounded approach time is 0 ms, yet the
  // plan must still enter the core after `now`, at finite speeds.
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  const Tick now = 54'000;
  const double s = ix.route(5).core_begin - 0.0022;
  const TravelPlan p = sched.reschedule(VehicleId{28}, 5, {}, now, s);
  EXPECT_GT(p.core_entry, now);
  ASSERT_FALSE(p.segments.empty());
  for (const PlanSegment& seg : p.segments) {
    EXPECT_TRUE(std::isfinite(seg.v_mps)) << "segment at t=" << seg.start;
    EXPECT_GE(seg.start, now);
  }
  EXPECT_DOUBLE_EQ(p.s_at(now), s);
}

TEST(Evacuation, VehicleHeadingIntoThreatStops) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  const auto& route = ix.route(0);
  // Threat sits on route 0's core.
  ThreatInfo threat;
  threat.position = route.path.point_at(route.core_begin + 10);
  threat.radius_m = 20;
  threat.suspect = VehicleId{99};

  ActiveVehicle v{VehicleId{1}, 0, {}, route.core_begin - 100, 15.0};
  const auto plans = sched.plan_evacuation({v}, threat, 50000);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].evacuation);
  // Final segment is a stop short of the threat.
  const auto& last = plans[0].segments.back();
  EXPECT_DOUBLE_EQ(last.v_mps, 0.0);
  const double threat_s = route.core_begin + 10;
  EXPECT_LT(last.s0, threat_s - threat.radius_m + 1e-6);
}

TEST(Evacuation, VehicleOnClearRouteContinues) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  const auto& route0 = ix.route(0);
  ThreatInfo threat;
  threat.position = route0.path.point_at(route0.core_begin);
  threat.radius_m = 15;
  threat.suspect = VehicleId{99};

  // A vehicle on an unrelated route that never comes near the threat
  // (shared exit legs put many routes close; 25 m > radius + margin).
  int clear_route = -1;
  for (const auto& r : ix.routes()) {
    const auto [dist, s] = r.path.project(threat.position);
    if (dist > threat.radius_m + 10.0) {
      clear_route = r.id;
      break;
    }
  }
  ASSERT_GE(clear_route, 0);
  ActiveVehicle v{VehicleId{2}, clear_route, {}, 10.0, 15.0};
  const auto plans = sched.plan_evacuation({v}, threat, 1000);
  ASSERT_EQ(plans.size(), 1u);
  // Keeps moving (no zero-speed final segment).
  EXPECT_GT(plans[0].segments.back().v_mps, 0.0);
}

TEST(Evacuation, SuspectGetsNoPlan) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  ThreatInfo threat;
  threat.suspect = VehicleId{7};
  ActiveVehicle suspect{VehicleId{7}, 0, {}, 50.0, 15.0};
  ActiveVehicle witness{VehicleId{8}, 3, {}, 60.0, 15.0};
  const auto plans = sched.plan_evacuation({suspect, witness}, threat, 0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].vehicle, VehicleId{8});
}

TEST(Recovery, ReplansAllVehiclesWithoutConflicts) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler sched(ix);
  std::vector<ActiveVehicle> active;
  // Vehicles scattered along different routes, pre-core.
  for (int i = 0; i < 8; ++i) {
    active.push_back(ActiveVehicle{VehicleId{static_cast<std::uint64_t>(i + 1)},
                                   i % 12, {}, 20.0 * i, 10.0});
  }
  const auto plans = sched.plan_recovery(active, 100000);
  ASSERT_EQ(plans.size(), active.size());
  std::vector<const TravelPlan*> ptrs;
  for (const auto& p : plans) ptrs.push_back(&p);
  // Vehicles pre-core must be conflict-free; mid-core vehicles are committed
  // as-is (they are physically there), so filter to pre-core ones.
  std::vector<const TravelPlan*> pre_core;
  for (const auto* p : ptrs) {
    if (p->core_entry > 100001) pre_core.push_back(p);
  }
  EXPECT_TRUE(find_plan_conflicts(ix, pre_core, 500).empty());
  for (const auto& p : plans) {
    EXPECT_FALSE(p.evacuation);
    EXPECT_EQ(p.issued_at, 100000);
  }
}

TEST(Baseline, OnlyEntersOnGreen) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  TrafficLightScheduler lights(ix);
  ArrivalGenerator gen(ix, 80, Rng(5));
  std::uint64_t next = 1;
  for (const auto& a : gen.generate(2 * 60 * 1000)) {
    const TravelPlan p =
        lights.schedule(VehicleId{next++}, a.route_id, a.traits, a.time, 20.0);
    const int leg = ix.route(a.route_id).entry_leg;
    EXPECT_TRUE(lights.is_green(leg, p.core_entry))
        << "vehicle " << next - 1 << " entered on red (t=" << p.core_entry << ")";
  }
}

TEST(Baseline, CycleCoversAllLegs) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  TrafficLightScheduler lights(ix);
  EXPECT_EQ(lights.cycle_ms(), 4 * (12000 + 3000));
  // At any instant at most one leg is green.
  for (Tick t = 0; t < lights.cycle_ms(); t += 500) {
    int greens = 0;
    for (int leg = 0; leg < 4; ++leg) greens += lights.is_green(leg, t) ? 1 : 0;
    EXPECT_LE(greens, 1) << "t=" << t;
  }
}

TEST(Baseline, SlowerThanReservationScheduler) {
  const auto ix = make_ix(IntersectionKind::kCross4);
  ReservationScheduler aim(ix);
  TrafficLightScheduler lights(ix);
  ArrivalGenerator gen(ix, 80, Rng(11));
  const auto arrivals = gen.generate(3 * 60 * 1000);
  Tick aim_total = 0, light_total = 0;
  std::uint64_t next = 1;
  for (const auto& a : arrivals) {
    const VehicleId id{next++};
    aim_total += aim.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit - a.time;
    light_total +=
        lights.schedule(id, a.route_id, a.traits, a.time, 20.0).core_exit - a.time;
  }
  EXPECT_LT(aim_total, light_total)
      << "reservation AIM should beat fixed-cycle lights on average delay";
}

}  // namespace
}  // namespace nwade::aim

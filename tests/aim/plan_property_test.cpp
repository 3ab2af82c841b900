// Property-based checks on travel plans and conflict detection: randomized
// profiles, kinematic consistency, and agreement with a brute-force oracle.
#include <gtest/gtest.h>

#include "aim/scheduler.h"
#include "traffic/arrivals.h"

namespace nwade::aim {
namespace {

TravelPlan random_plan(Rng& rng, std::uint64_t vid, int route_id, double route_len) {
  TravelPlan p;
  p.vehicle = VehicleId{vid};
  p.route_id = route_id;
  Tick t = rng.uniform_int(0, 5'000);
  double s = 0;
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(2.0, 25.0);
    p.segments.push_back(PlanSegment{t, s, v});
    const Duration dur = rng.uniform_int(2'000, 20'000);
    s += v * ticks_to_seconds(dur);
    t += dur;
    if (s > route_len) break;
  }
  p.issued_at = p.segments.front().start;
  return p;
}

TEST(PlanProperty, PositionIsMonotoneNonDecreasing) {
  Rng rng(101);
  for (int iter = 0; iter < 50; ++iter) {
    const TravelPlan p = random_plan(rng, 1, 0, 500);
    double prev = -1;
    for (Tick t = 0; t < 60'000; t += 250) {
      const double s = p.s_at(t);
      EXPECT_GE(s, prev - 1e-9) << "iter " << iter << " t " << t;
      prev = s;
    }
  }
}

TEST(PlanProperty, TimeAtIsLeftInverseOfPosition) {
  Rng rng(102);
  for (int iter = 0; iter < 50; ++iter) {
    const TravelPlan p = random_plan(rng, 1, 0, 500);
    for (double s : {1.0, 10.0, 50.0, 200.0}) {
      const auto t = p.time_at(s);
      if (!t) continue;  // unreachable: plan ends standing still
      // s_at(time_at(s)) == s within tick rounding of the slowest segment.
      EXPECT_NEAR(p.s_at(*t), s, 0.05) << "iter " << iter << " s " << s;
      // No earlier tick reaches s.
      if (*t > 0) {
        EXPECT_LT(p.s_at(*t - 2), s + 0.05);
      }
    }
  }
}

TEST(PlanProperty, SerializationPreservesKinematics) {
  Rng rng(103);
  for (int iter = 0; iter < 30; ++iter) {
    const TravelPlan p = random_plan(rng, 7, 3, 500);
    const auto q = TravelPlan::deserialize(p.serialize());
    ASSERT_TRUE(q.has_value());
    for (Tick t = 0; t < 40'000; t += 1'000) {
      EXPECT_DOUBLE_EQ(p.s_at(t), q->s_at(t));
      EXPECT_DOUBLE_EQ(p.v_at(t), q->v_at(t));
    }
  }
}

// Brute-force conflict oracle: sample both plans' positions over time and
// flag any instant where both are inside the same zone's windows.
bool oracle_conflict(const traffic::Intersection& ix, const TravelPlan& a,
                     const TravelPlan& b, Duration margin) {
  for (const traffic::ZoneRef& ra : ix.zones_for(a.route_id)) {
    for (const traffic::ZoneRef& rb : ix.zones_for(b.route_id)) {
      if (ra.zone_id != rb.zone_id) continue;
      if (a.route_id == b.route_id) continue;
      for (Tick t = 0; t < 120'000; t += 50) {
        const double sa = a.s_at(t);
        const double sb = b.s_at(static_cast<Tick>(t));
        // Expand each window by the time margin converted through speed; to
        // stay conservative the oracle only checks the unpadded windows and
        // the caller uses margin 0.
        (void)margin;
        if (sa >= ra.begin && sa <= ra.end && sb >= rb.begin && sb <= rb.end) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(PlanProperty, ConflictFinderAgreesWithOracle) {
  traffic::IntersectionConfig icfg;
  icfg.kind = traffic::IntersectionKind::kCross4;
  const auto ix = traffic::Intersection::build(icfg);
  Rng rng(104);
  int oracle_hits = 0, finder_hits = 0, checked = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int ra = static_cast<int>(rng.uniform_int(0, 11));
    const int rb = static_cast<int>(rng.uniform_int(0, 11));
    if (ra == rb) continue;
    const TravelPlan a =
        random_plan(rng, 1, ra, ix.route(ra).path.length());
    const TravelPlan b =
        random_plan(rng, 2, rb, ix.route(rb).path.length());
    const bool oracle = oracle_conflict(ix, a, b, 0);
    const bool finder = !find_plan_conflicts(ix, {&a, &b}, 0).empty();
    ++checked;
    oracle_hits += oracle;
    finder_hits += finder;
    // The finder must never miss an oracle-visible co-occupancy.
    EXPECT_TRUE(!oracle || finder) << "iter " << iter << " routes " << ra << "," << rb;
  }
  // The sweep must have exercised both outcomes to mean anything.
  EXPECT_GT(oracle_hits, 2);
  EXPECT_LT(finder_hits, checked);
}

TEST(PlanProperty, PairConflictViaOccupanciesMatchesFinder) {
  // occupancies_conflict on precomputed plan_occupancy values is the fast
  // path the IM's legacy-tracking refresh uses; it must equal the boolean
  // find_plan_conflicts computes for the pair — same-route (headway) and
  // cross-route (shared zone) cases alike, margin included.
  traffic::IntersectionConfig icfg;
  icfg.kind = traffic::IntersectionKind::kCross4;
  const auto ix = traffic::Intersection::build(icfg);
  Rng rng(105);
  int agreements_true = 0, agreements_false = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const int ra = static_cast<int>(rng.uniform_int(0, 11));
    const int rb = static_cast<int>(rng.uniform_int(0, 11));
    const TravelPlan a = random_plan(rng, 1, ra, ix.route(ra).path.length());
    const TravelPlan b = random_plan(rng, 2, rb, ix.route(rb).path.length());
    const Duration margin = rng.uniform_int(0, 2) * 250;
    const bool finder = !find_plan_conflicts(ix, {&a, &b}, margin).empty();
    const bool fast = occupancies_conflict(plan_occupancy(ix, a, margin),
                                           plan_occupancy(ix, b, margin));
    ASSERT_EQ(fast, finder) << "iter " << iter << " routes " << ra << ","
                            << rb << " margin " << margin;
    (finder ? agreements_true : agreements_false)++;
  }
  // Both outcomes must occur for the agreement to mean anything.
  EXPECT_GT(agreements_true, 10);
  EXPECT_GT(agreements_false, 10);
}

TEST(PlanProperty, ScheduledBatchesStableUnderResimulation) {
  // Scheduling the same arrival sequence twice gives identical plans
  // (pure function of inputs — no hidden global state).
  traffic::IntersectionConfig icfg;
  icfg.kind = traffic::IntersectionKind::kCfi4;
  const auto ix = traffic::Intersection::build(icfg);
  traffic::ArrivalGenerator gen(ix, 90, Rng(7));
  const auto arrivals = gen.generate(60'000);
  std::vector<TravelPlan> first, second;
  for (int lap = 0; lap < 2; ++lap) {
    ReservationScheduler sched(ix);
    auto& out = lap == 0 ? first : second;
    std::uint64_t vid = 1;
    for (const auto& a : arrivals) {
      out.push_back(sched.schedule(VehicleId{vid++}, a.route_id, a.traits, a.time,
                                   a.initial_speed_mps));
    }
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "plan " << i;
  }
}

}  // namespace
}  // namespace nwade::aim

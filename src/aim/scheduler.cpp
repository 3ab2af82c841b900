#include "aim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nwade::aim {

namespace {

/// Occupancy of [s_begin, s_end] by a plan, padded by `margin` on both sides.
std::optional<std::pair<Tick, Tick>> padded_occupancy(const TravelPlan& plan,
                                                      double s_begin, double s_end,
                                                      Duration margin) {
  const auto t_in = plan.time_at(s_begin);
  if (!t_in) return std::nullopt;
  auto t_out = plan.time_at(s_end);
  const Tick out = t_out ? *t_out : kTickMax - margin;
  return std::make_pair(*t_in - margin, out + margin);
}

}  // namespace

ReservationScheduler::ReservationScheduler(const traffic::Intersection& intersection)
    : intersection_(intersection),
      zone_tables_(intersection.zones().size()),
      route_core_tables_(intersection.routes().size()),
      route_last_core_entry_(intersection.routes().size(), Tick{-1}) {}

TravelPlan make_profile_plan(const traffic::Intersection& intersection, VehicleId id,
                             int route_id, const traffic::VehicleTraits& traits,
                             Tick now, double s_start, Tick core_entry) {
  const traffic::Route& route = intersection.route(route_id);
  const double limit = intersection.config().limits.speed_limit_mps;
  const double v_cross = 0.7 * limit;  // uniform core-crossing speed

  TravelPlan plan;
  plan.vehicle = id;
  plan.route_id = route_id;
  plan.traits = traits;
  plan.issued_at = now;
  plan.status_at_issue.position = route.path.point_at(s_start);
  plan.status_at_issue.heading_rad = route.path.heading_at(s_start);

  if (s_start >= route.core_end) {
    // Already past all conflicts: proceed at the limit to the exit.
    plan.segments = {PlanSegment{now, s_start, limit}};
    plan.core_entry = now;
    plan.core_exit = now;
    return plan;
  }

  if (s_start >= route.core_begin) {
    // Mid-core (recovery case): cross the rest of the core now.
    const Tick t_core_exit =
        now + seconds_to_ticks((route.core_end - s_start) / v_cross);
    plan.segments = {PlanSegment{now, s_start, v_cross},
                     PlanSegment{t_core_exit, route.core_end, limit}};
    plan.core_entry = now;
    plan.core_exit = t_core_exit;
    return plan;
  }

  // Approach phase: hit the core at `core_entry` exactly.
  const double d = route.core_begin - s_start;
  assert(core_entry > now);
  const double dt_s = ticks_to_seconds(core_entry - now);
  double v_app = d / dt_s;
  Tick t_go = now;
  if (v_app < kMinCruiseMps) {
    // Too slow to cruise the whole way: wait at the spawn point first.
    v_app = kMinCruiseMps;
    t_go = core_entry - seconds_to_ticks(d / v_app);
    plan.segments.push_back(PlanSegment{now, s_start, 0.0});
  }
  plan.segments.push_back(PlanSegment{t_go, s_start, v_app});

  const Tick t_core_exit =
      core_entry + seconds_to_ticks((route.core_end - route.core_begin) / v_cross);
  plan.segments.push_back(PlanSegment{core_entry, route.core_begin, v_cross});
  plan.segments.push_back(PlanSegment{t_core_exit, route.core_end, limit});
  plan.core_entry = core_entry;
  plan.core_exit = t_core_exit;
  return plan;
}

void ReservationScheduler::consider(const IntervalTable& table, Tick in, Tick out,
                                    Tick& shift) const {
  // The smallest core-entry shift clearing every blocking reservation in
  // this table is driven by the latest blocking end alone: shift past it.
  const auto max_end = table.latest_blocking_end(in, out);
  if (max_end) shift = std::max(shift, *max_end - in + 1);
}

Tick ReservationScheduler::blocking_shift(const TravelPlan& plan,
                                          int route_id) const {
  const traffic::Route& route = intersection_.route(route_id);
  Tick shift = 0;

  if (const auto core =
          padded_occupancy(plan, route.core_begin, route.core_end, kSchedulerMarginMs)) {
    consider(route_core_tables_[static_cast<std::size_t>(route_id)], core->first,
             core->second, shift);
  }
  for (const traffic::ZoneRef& ref : intersection_.zones_for(route_id)) {
    const auto occ = padded_occupancy(plan, ref.begin, ref.end, kSchedulerMarginMs);
    if (!occ) continue;
    consider(zone_tables_[static_cast<std::size_t>(ref.zone_id)], occ->first,
             occ->second, shift);
  }
  return shift;
}

void ReservationScheduler::commit(const TravelPlan& plan, int route_id) {
  const traffic::Route& route = intersection_.route(route_id);
  if (const auto core =
          padded_occupancy(plan, route.core_begin, route.core_end, kSchedulerMarginMs)) {
    route_core_tables_[static_cast<std::size_t>(route_id)].insert(
        Interval{core->first, core->second, plan.vehicle});
  }
  for (const traffic::ZoneRef& ref : intersection_.zones_for(route_id)) {
    if (const auto occ =
            padded_occupancy(plan, ref.begin, ref.end, kSchedulerMarginMs)) {
      zone_tables_[static_cast<std::size_t>(ref.zone_id)].insert(
          Interval{occ->first, occ->second, plan.vehicle});
    }
  }
  Tick& last_entry = route_last_core_entry_[static_cast<std::size_t>(route_id)];
  last_entry = std::max(last_entry, plan.core_entry);
}

TravelPlan ReservationScheduler::fit(VehicleId id, int route_id,
                                     const traffic::VehicleTraits& traits, Tick now,
                                     double s_start, Tick core_entry) {
  TravelPlan plan =
      make_profile_plan(intersection_, id, route_id, traits, now, s_start, core_entry);
  for (int iter = 0; iter < kMaxPushIterations; ++iter) {
    const Tick shift = blocking_shift(plan, route_id);
    if (shift == 0) break;
    core_entry += shift;
    plan = make_profile_plan(intersection_, id, route_id, traits, now, s_start,
                             core_entry);
  }
  commit(plan, route_id);
  return plan;
}

TravelPlan ReservationScheduler::schedule(VehicleId id, int route_id,
                                          const traffic::VehicleTraits& traits,
                                          Tick now, double initial_speed_mps) {
  (void)initial_speed_mps;  // plans impose their own profile from the spawn point
  const traffic::Route& route = intersection_.route(route_id);
  const double limit = intersection_.config().limits.speed_limit_mps;
  Tick core_entry = now + seconds_to_ticks(route.core_begin / limit);
  // FIFO along the shared approach: never slot a new spawn in front of a
  // same-route vehicle that already holds a (possibly distant) reservation.
  if (const Tick last = route_last_core_entry_[static_cast<std::size_t>(route_id)];
      last >= 0) {
    core_entry = std::max(core_entry, last + 1);
  }
  return fit(id, route_id, traits, now, 0.0, core_entry);
}

void ReservationScheduler::reserve_virtual(const TravelPlan& plan) {
  commit(plan, plan.route_id);
}

void ReservationScheduler::release_vehicle(VehicleId id) {
  for (IntervalTable& table : zone_tables_) table.erase_owner(id);
  for (IntervalTable& table : route_core_tables_) table.erase_owner(id);
}

TravelPlan ReservationScheduler::reschedule(VehicleId id, int route_id,
                                            const traffic::VehicleTraits& traits,
                                            Tick now, double s_start) {
  const traffic::Route& route = intersection_.route(route_id);
  const double limit = intersection_.config().limits.speed_limit_mps;
  if (s_start >= route.core_begin) {
    // Already in or past the core: physics is committed; keep going.
    TravelPlan plan =
        make_profile_plan(intersection_, id, route_id, traits, now, s_start, now + 1);
    commit(plan, route_id);
    return plan;
  }
  // At least one tick out: within ~1 cm of the core the rounded approach
  // time is 0, which would ask for a zero-length approach at infinite speed.
  return fit(id, route_id, traits, now, s_start,
             now + std::max<Duration>(
                       1, seconds_to_ticks((route.core_begin - s_start) / limit)));
}

void ReservationScheduler::release_before(Tick t) {
  for (IntervalTable& table : zone_tables_) table.erase_end_before(t);
  for (IntervalTable& table : route_core_tables_) table.erase_end_before(t);
}

std::size_t ReservationScheduler::reservation_count() const {
  std::size_t n = 0;
  for (const IntervalTable& table : zone_tables_) n += table.size();
  return n;
}

std::vector<TravelPlan> ReservationScheduler::plan_evacuation(
    const std::vector<ActiveVehicle>& vehicles, const ThreatInfo& threat,
    Tick now) const {
  std::vector<TravelPlan> plans;
  const double limit = intersection_.config().limits.speed_limit_mps;
  const double v_evac = 0.5 * limit;  // slowed, per the paper's recovery note

  for (const ActiveVehicle& v : vehicles) {
    if (v.id == threat.suspect) continue;
    const traffic::Route& route = intersection_.route(v.route_id);

    TravelPlan plan;
    plan.vehicle = v.id;
    plan.route_id = v.route_id;
    plan.traits = v.traits;
    plan.issued_at = now;
    plan.evacuation = true;
    plan.status_at_issue.position = route.path.point_at(v.s);
    plan.status_at_issue.speed_mps = v.v_mps;
    plan.status_at_issue.heading_rad = route.path.heading_at(v.s);

    const auto [dist, s_threat] = route.path.project(threat.position);
    const bool ahead = s_threat > v.s + 1.0;
    if (dist <= threat.radius_m && ahead) {
      // The threat sits on this vehicle's remaining path: stop short of it.
      const double stop_s = std::max(v.s, s_threat - threat.radius_m - 10.0);
      if (stop_s <= v.s + 0.5) {
        plan.segments = {PlanSegment{now, v.s, 0.0}};
      } else {
        const Tick t_stop = now + seconds_to_ticks((stop_s - v.s) / v_evac);
        plan.segments = {PlanSegment{now, v.s, v_evac},
                         PlanSegment{t_stop, stop_s, 0.0}};
      }
    } else {
      // Clear path: leave the intersection at reduced speed.
      plan.segments = {PlanSegment{now, v.s, v_evac}};
    }
    plan.core_entry = now;
    plan.core_exit = now;
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<TravelPlan> ReservationScheduler::plan_recovery(
    const std::vector<ActiveVehicle>& vehicles, Tick now) {
  // Reservations made for pre-evacuation plans are void; start fresh.
  for (IntervalTable& table : zone_tables_) table.clear();
  for (IntervalTable& table : route_core_tables_) table.clear();

  // Vehicles closest to the exit replan first so upstream vehicles queue
  // behind them rather than the other way around.
  std::vector<ActiveVehicle> order = vehicles;
  std::sort(order.begin(), order.end(),
            [](const ActiveVehicle& a, const ActiveVehicle& b) { return a.s > b.s; });

  std::vector<TravelPlan> plans;
  for (const ActiveVehicle& v : order) {
    plans.push_back(reschedule(v.id, v.route_id, v.traits, now, v.s));
  }
  return plans;
}

}  // namespace nwade::aim

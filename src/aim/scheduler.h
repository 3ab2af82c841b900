// DASH-like reservation scheduler.
//
// The paper plugs NWADE into DASH [16], whose job is: take each incoming
// vehicle's request and produce a travel plan that crosses the intersection
// as early as possible without conflicting with already-scheduled vehicles.
// This is the canonical conflict-point reservation formulation:
//
//   * every (route pair) conflict zone is a resource with a reservation table
//   * a vehicle's plan claims each zone on its route for a time interval
//   * the scheduler finds the earliest core-entry time whose induced claims
//     fit every table, also keeping same-route core crossings disjoint
//     (headway), then commits the reservations
//
// Plans are piecewise-constant-speed: an optional wait at the spawn point,
// a cruise to and through the core, then the speed limit on the exit leg.
#pragma once

#include <vector>

#include "aim/interval_table.h"
#include "aim/plan.h"
#include "traffic/intersection.h"
#include "util/types.h"

namespace nwade::aim {

/// Protective time buffer applied to each zone/core occupancy (per side).
inline constexpr Duration kSchedulerMarginMs = 900;
/// Slowest acceptable cruise speed; below this the vehicle waits at spawn.
inline constexpr double kMinCruiseMps = 4.0;
/// Give-up bound for the feasibility search (defensive; rarely hit).
inline constexpr int kMaxPushIterations = 400;

/// Snapshot of a vehicle mid-crossing, used for evacuation replanning.
struct ActiveVehicle {
  VehicleId id;
  int route_id{0};
  traffic::VehicleTraits traits;
  double s{0};       ///< current arc position on its route
  double v_mps{0};   ///< current speed
};

/// A located threat the evacuation must route around.
struct ThreatInfo {
  geom::Vec2 position;
  double radius_m{25.0};
  VehicleId suspect;
};

/// Builds the standard plan profile: optional wait at s_start, cruise timed
/// to reach the core at `core_entry`, cross at a uniform core speed, then the
/// speed limit on the exit leg; a cruise slower than kMinCruiseMps waits
/// at s_start instead. Shared by both schedulers.
TravelPlan make_profile_plan(const traffic::Intersection& intersection, VehicleId id,
                             int route_id, const traffic::VehicleTraits& traits,
                             Tick now, double s_start, Tick core_entry);

/// The reservation scheduler (the "AIM optimizer" substrate).
class ReservationScheduler {
 public:
  explicit ReservationScheduler(const traffic::Intersection& intersection);

  /// Produces a plan for a vehicle whose spawn (communication-zone entry)
  /// happened at `now` with the given initial speed.
  TravelPlan schedule(VehicleId id, int route_id,
                      const traffic::VehicleTraits& traits, Tick now,
                      double initial_speed_mps);

  /// Frees reservation state that ends before `t` (bounded memory).
  void release_before(Tick t);

  /// Replans every active vehicle around a confirmed threat: vehicles whose
  /// remaining path stays clear continue at reduced speed; vehicles heading
  /// into the threat radius stop short of it. Plans are marked `evacuation`.
  std::vector<TravelPlan> plan_evacuation(const std::vector<ActiveVehicle>& vehicles,
                                          const ThreatInfo& threat, Tick now) const;

  /// Post-evacuation recovery: fresh normal plans for the surviving vehicles
  /// from their current positions, re-reserving zones from scratch.
  std::vector<TravelPlan> plan_recovery(const std::vector<ActiveVehicle>& vehicles,
                                        Tick now);

  /// Replaces one vehicle's plan from its current position, fitting around
  /// all existing reservations (its own previous claims included, which is
  /// conservative); a vehicle in or past the core is committed as is. Used
  /// when a newly appeared legacy vehicle invalidates an already-issued
  /// plan, and by plan_recovery for each survivor.
  TravelPlan reschedule(VehicleId id, int route_id,
                        const traffic::VehicleTraits& traits, Tick now,
                        double s_start);

  /// Registers a virtual (unmanaged) plan's zone occupancy so subsequent
  /// scheduling routes managed vehicles around a legacy vehicle's predicted
  /// trajectory. Mixed-traffic extension.
  void reserve_virtual(const TravelPlan& plan);

  /// Drops every reservation a vehicle holds. Used when a tracked vehicle's
  /// predicted trajectory is replaced (each window re-predicts it) or
  /// falsified outright (it parked): without this, stale phantom claims pile
  /// up and push same-core schedules tens of seconds into the future.
  void release_vehicle(VehicleId id);

  /// Number of live zone reservations (for tests/metrics).
  std::size_t reservation_count() const;

  /// Field list: every reservation table and the per-route commit
  /// watermark. A read expects a scheduler freshly built from the identical
  /// intersection (same table counts) and rejects any other.
  template <class Ar, class Self> static void io(Ar& ar, Self& s) {
    ar.fixed(s.zone_tables_, [](auto& a, auto& t) { a(t); });
    ar.fixed(s.route_core_tables_, [](auto& a, auto& t) { a(t); });
    ar.fixed(s.route_last_core_entry_, [](auto& a, auto& t) { a.i64(t); });
  }

 private:
  using Interval = IntervalTable::Interval;

  void commit(const TravelPlan& plan, int route_id);
  /// The profile plan from `s_start`, its core entry pushed from
  /// `core_entry` past every blocking reservation, committed.
  TravelPlan fit(VehicleId id, int route_id, const traffic::VehicleTraits& traits,
                 Tick now, double s_start, Tick core_entry);
  /// 0 when the plan fits, otherwise the smallest shift (ms) of its core
  /// entry that clears every currently blocking reservation.
  Tick blocking_shift(const TravelPlan& plan, int route_id) const;
  /// Latest blocking end in `table` for [in, out); folds the induced
  /// core-entry push into `shift`.
  void consider(const IntervalTable& table, Tick in, Tick out, Tick& shift) const;

  const traffic::Intersection& intersection_;
  std::vector<IntervalTable> zone_tables_;        ///< indexed by zone id
  std::vector<IntervalTable> route_core_tables_;  ///< indexed by route id
  /// Latest committed core-entry per route (-1 = no commits yet). New spawns
  /// (s=0) may not enter the core before a vehicle already committed on the
  /// same route: the earliest-fit search could otherwise slot a newcomer
  /// into a free window *before* an earlier vehicle's distant reservation,
  /// making it physically overtake that vehicle on the shared approach lane.
  std::vector<Tick> route_last_core_entry_;
};

}  // namespace nwade::aim

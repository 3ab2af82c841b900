// Fixed-cycle traffic-light baseline.
//
// Used by the throughput benchmark (Fig. 8 context) and the ablation suite as
// the pre-AIM comparator: each entry leg gets a green window in rotation; a
// vehicle may only enter the core during its leg's green, and consecutive
// vehicles from one leg are separated by a fixed service headway.
#pragma once

#include <map>

#include "aim/scheduler.h"

namespace nwade::aim {

/// Green window per leg.
inline constexpr Duration kGreenMs = 12000;
/// All-red clearance between phases.
inline constexpr Duration kClearanceMs = 3000;
/// Minimum headway between two vehicles of the same leg entering the core.
inline constexpr Duration kServiceHeadwayMs = 2200;

/// Signalized baseline: the same schedule() call as ReservationScheduler.
class TrafficLightScheduler {
 public:
  explicit TrafficLightScheduler(const traffic::Intersection& intersection);

  TravelPlan schedule(VehicleId id, int route_id,
                      const traffic::VehicleTraits& traits, Tick now,
                      double initial_speed_mps);

  /// Full cycle duration: legs * (green + clearance).
  Duration cycle_ms() const { return cycle_ms_; }

  /// True when leg `leg` has green at time `t`.
  bool is_green(int leg, Tick t) const;

 private:
  /// Earliest tick >= t during leg's green (entering within the green window).
  Tick next_green_at(int leg, Tick t) const;

  const traffic::Intersection& intersection_;
  Duration cycle_ms_;
  std::map<int, Tick> last_entry_per_leg_;
};

}  // namespace nwade::aim

#include "aim/baseline.h"

#include <cassert>

namespace nwade::aim {

TrafficLightScheduler::TrafficLightScheduler(const traffic::Intersection& intersection,
                                             TrafficLightConfig config)
    : intersection_(intersection),
      config_(config),
      cycle_ms_(static_cast<Duration>(intersection.leg_count()) *
                (config.green_ms + config.clearance_ms)) {}

bool TrafficLightScheduler::is_green(int leg, Tick t) const {
  if (t < 0) return false;
  const Duration slot = config_.green_ms + config_.clearance_ms;
  const Tick phase = t % cycle_ms_;
  const Tick leg_start = static_cast<Tick>(leg) * slot;
  return phase >= leg_start && phase < leg_start + config_.green_ms;
}

Tick TrafficLightScheduler::next_green_at(int leg, Tick t) const {
  if (is_green(leg, t)) return t;
  const Duration slot = config_.green_ms + config_.clearance_ms;
  const Tick leg_start = static_cast<Tick>(leg) * slot;
  const Tick cycle_base = (t / cycle_ms_) * cycle_ms_;
  Tick candidate = cycle_base + leg_start;
  while (candidate < t) candidate += cycle_ms_;
  return candidate;
}

TravelPlan TrafficLightScheduler::schedule(VehicleId id, int route_id,
                                           const traffic::VehicleTraits& traits,
                                           Tick now, double /*initial_speed_mps*/) {
  const traffic::Route& route = intersection_.route(route_id);
  const double limit = intersection_.config().limits.speed_limit_mps;
  const int leg = route.entry_leg;

  Tick earliest = now + seconds_to_ticks(route.core_begin / limit);
  // Headway behind the previous vehicle from this leg.
  const auto it = last_entry_per_leg_.find(leg);
  if (it != last_entry_per_leg_.end()) {
    earliest = std::max(earliest, it->second + config_.service_headway_ms);
  }
  const Tick core_entry = next_green_at(leg, earliest);
  last_entry_per_leg_[leg] = core_entry;

  return make_profile_plan(intersection_, id, route_id, traits, now, 0.0, core_entry,
                           config_.min_cruise_mps);
}

}  // namespace nwade::aim

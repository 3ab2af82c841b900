// Sensing abstraction: vehicles and the IM observe ground truth through this
// interface ("autonomous vehicles are typically equipped with cameras, LiDAR,
// and radar... these sensing abilities are sufficient to monitor neighboring
// vehicles' behaviors"). The simulation world implements it.
#pragma once

#include <vector>

#include "geom/vec2.h"
#include "traffic/types.h"
#include "util/types.h"

namespace nwade::protocol {

/// What a sensor sees of one vehicle: identity (via plates/traits matching),
/// static traits, and instantaneous kinematic state.
struct Observation {
  VehicleId id;
  traffic::VehicleTraits traits;
  traffic::VehicleStatus status;
};

class SensorProvider {
 public:
  virtual ~SensorProvider() = default;

  /// Clears `out` and fills it with the ground-truth snapshot of every
  /// vehicle within `radius` of `center`, excluding `exclude` (the observer
  /// itself). Hot-path callers (the per-step watch scan, the IM's unmanaged
  /// tracker) hold a reusable buffer so steady-state sensing allocates
  /// nothing.
  virtual void sense_around_into(geom::Vec2 center, double radius, VehicleId exclude,
                                 std::vector<Observation>& out) const = 0;

  /// The same snapshot in a fresh vector.
  std::vector<Observation> sense_around(geom::Vec2 center, double radius,
                                        VehicleId exclude) const {
    std::vector<Observation> out;
    sense_around_into(center, radius, exclude, out);
    return out;
  }

  /// Observation of one specific vehicle if it is still on the road.
  virtual std::optional<Observation> observe(VehicleId id) const = 0;
};

}  // namespace nwade::protocol

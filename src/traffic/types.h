// Vehicle-facing value types: turning movements, static traits ("char" in the
// paper's travel-plan tuple), and dynamic status ("status").
#pragma once

#include <array>
#include <cassert>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "util/bytes.h"
#include "util/types.h"

namespace nwade::traffic {

/// Turning movement through the intersection.
enum class Turn : std::uint8_t { kLeft = 0, kStraight = 1, kRight = 2 };

inline const char* turn_name(Turn t) {
  switch (t) {
    case Turn::kLeft: return "left";
    case Turn::kStraight: return "straight";
    case Turn::kRight: return "right";
  }
  return "?";
}

/// Static, externally observable vehicle characteristics. The paper uses
/// these ("car brand, model, and color") to match incident reports and
/// evacuation alerts to physical vehicles.
struct VehicleTraits {
  std::uint8_t brand{0};
  std::uint8_t model{0};
  std::uint8_t color{0};
  double length_m{4.5};

  bool operator==(const VehicleTraits&) const = default;

  template <class Ar, class Self> static void io(Ar& ar, Self& t) {
    ar.u8(t.brand);
    ar.u8(t.model);
    ar.u8(t.color);
    ar.f64(t.length_m);
  }
};

/// Dynamic vehicle state: what sensors observe and what plans predict.
struct VehicleStatus {
  geom::Vec2 position;
  double speed_mps{0};
  double heading_rad{0};

  template <class Ar, class Self> static void io(Ar& ar, Self& s) {
    ar.f64(s.position.x);
    ar.f64(s.position.y);
    ar.f64(s.speed_mps);
    ar.f64(s.heading_rad);
  }
};

/// Kinematic limits (paper defaults: 50 mph, 2 m/s^2 accel, 3 m/s^2 decel).
struct KinematicLimits {
  double speed_limit_mps{mph_to_mps(50.0)};
  double max_accel_mps2{2.0};
  double max_decel_mps2{3.0};
};

/// Structure-of-arrays storage for the per-vehicle kinematic hot state the
/// world's physics/watch/gap-audit phases stream every step. One row per
/// managed vehicle, appended in spawn (= id) order and never erased —
/// exited vehicles flip `active` to 0 so row indices stay stable for the
/// lifetime of a run. Vehicle nodes bind references into these columns, so
/// the vectors must NEVER reallocate after the first row is handed out:
/// the owner reserves the full arrival count up front and add_row asserts
/// spare capacity.
struct VehicleColumns {
  std::vector<double> s;            ///< arc-length progress along the route path (m)
  std::vector<double> v;            ///< speed (m/s)
  std::vector<double> lateral;      ///< signed lateral offset from the path (m)
  std::vector<std::uint32_t> route; ///< route index into the intersection's route table
  std::vector<std::uint64_t> id;    ///< vehicle id backing the row
  std::vector<std::uint8_t> active; ///< 1 until the vehicle exits, then 0

  std::size_t size() const { return s.size(); }

  void reserve(std::size_t rows) {
    s.reserve(rows);
    v.reserve(rows);
    lateral.reserve(rows);
    route.reserve(rows);
    id.reserve(rows);
    active.reserve(rows);
  }

  /// Appends a zeroed row and returns its index. Requires spare capacity
  /// (reserve() must cover every row the run will ever add): growth would
  /// reallocate and dangle the references nodes hold into the columns.
  std::size_t add_row(std::uint64_t vehicle_id, std::uint32_t route_index) {
    assert(s.size() < s.capacity() && "VehicleColumns::reserve must cover all rows");
    const std::size_t row = s.size();
    s.push_back(0.0);
    v.push_back(0.0);
    lateral.push_back(0.0);
    route.push_back(route_index);
    id.push_back(vehicle_id);
    active.push_back(1);
    return row;
  }
};

}  // namespace nwade::traffic
